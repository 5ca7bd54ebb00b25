#!/usr/bin/env bash
# Soak test for the serving path: a 30s open-loop blast against
# tsg-serve --listen with 1% injected request faults, a hot artifact
# reload mid-blast, a corrupt-artifact reload that must roll back, a
# bounded-RSS check, and a graceful shutdown. Run from the repo root
# after `dune build` (or via `make soak`).
#
#   DURATION=30 RSS_LIMIT_KB=524288 scripts/soak.sh
set -euo pipefail

cd "$(dirname "$0")/.."
BIN=_build/install/default/bin
DURATION="${DURATION:-30}"
RSS_LIMIT_KB="${RSS_LIMIT_KB:-524288}" # 512 MB

[ -x "$BIN/tsg-serve" ] && [ -x "$BIN/tsg-blast" ] && [ -x "$BIN/tsg-mine" ] ||
  { echo "soak: binaries missing — run 'dune build' first" >&2; exit 2; }

WORK=$(mktemp -d)
SERVER_PID=""
cleanup() {
  [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() { echo "soak: FAIL: $*" >&2; exit 1; }

# one barrier request over bash's /dev/tcp, first reply line only
ask() {
  exec 3<>"/dev/tcp/127.0.0.1/$PORT"
  printf '%s\nquit\n' "$1" >&3
  IFS= read -r line <&3 || true
  exec 3<&- 3>&-
  printf '%s\n' "$line"
}

checksum_of() { sed -n 's/.* checksum \([^ ]*\).*/\1/p' <<<"$1"; }

# the served artifact is a scratch copy: the reload test overwrites it
cp examples/data/demo.pat "$WORK/live.pat"
# a genuinely different pattern set for the hot swap
"$BIN/tsg-mine" --db examples/data/demo.db --taxonomy examples/data/demo.tax \
  --support 0.4 --save "$WORK/alt.pat" --quiet >/dev/null
cmp -s "$WORK/live.pat" "$WORK/alt.pat" &&
  fail "alt artifact is identical to the live one"

echo "== soak: starting tsg-serve (1% injected faults)"
TSG_FAULTS=serve.request:0.01 "$BIN/tsg-serve" \
  --patterns "$WORK/live.pat" \
  --taxonomy examples/data/demo.tax \
  --db examples/data/demo.db \
  --listen 0 --request-timeout 5 \
  >"$WORK/serve.out" 2>"$WORK/serve.err" &
SERVER_PID=$!

PORT=""
for _ in $(seq 1 50); do
  PORT=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' "$WORK/serve.err" | head -n1)
  [ -n "$PORT" ] && break
  kill -0 "$SERVER_PID" 2>/dev/null || { cat "$WORK/serve.err" >&2; fail "server died at startup"; }
  sleep 0.1
done
[ -n "$PORT" ] && [ "$PORT" != "0" ] || fail "could not parse the listen port"
echo "== soak: port $PORT, pid $SERVER_PID"

HEALTH0=$(ask health)
case "$HEALTH0" in "ok health "*) ;; *) fail "bad health reply: $HEALTH0";; esac
SUM0=$(checksum_of "$HEALTH0")
[ -n "$SUM0" ] && [ "$SUM0" != "-" ] || fail "health reports no checksum: $HEALTH0"

echo "== soak: blasting for ${DURATION}s (paced: 4 clients x 100 rounds/s)"
"$BIN/tsg-blast" --port "$PORT" --duration "$DURATION" \
  --clients 4 --rate 100 --request "contains c0 -" >"$WORK/blast.out" 2>&1 &
BLAST_PID=$!

# mid-blast: hot swap to the alternate artifact with the reload verb
sleep $((DURATION / 3))
cp "$WORK/alt.pat" "$WORK/live.pat"
RELOAD1=$(ask reload)
case "$RELOAD1" in "ok reload "*) ;; *) fail "hot reload replied: $RELOAD1";; esac
HEALTH1=$(ask health)
SUM1=$(checksum_of "$HEALTH1")
[ -n "$SUM1" ] && [ "$SUM1" != "-" ] || fail "post-reload health broken: $HEALTH1"
[ "$SUM1" != "$SUM0" ] || fail "checksum unchanged after hot reload"
echo "== soak: hot reload ok ($SUM0 -> $SUM1)"

# mid-blast: a corrupt artifact must roll back and keep serving
printf 'this is not a pattern artifact\n' >"$WORK/live.pat"
RELOAD2=$(ask reload)
case "$RELOAD2" in "error RELOAD "*) ;; *) fail "corrupt reload replied: $RELOAD2";; esac
kill -0 "$SERVER_PID" 2>/dev/null || fail "server died on corrupt reload"
HEALTH2=$(ask health)
SUM2=$(checksum_of "$HEALTH2")
[ "$SUM2" = "$SUM1" ] || fail "corrupt reload changed the checksum ($SUM1 -> $SUM2)"
grep -q "SRV00" "$WORK/serve.err" || fail "no SRV00x rollback diagnostic on stderr"
echo "== soak: corrupt reload rolled back, still serving"

wait "$BLAST_PID" || { cat "$WORK/blast.out" >&2; fail "blast failed"; }
cat "$WORK/blast.out"
grep -q "broken connections: 0" "$WORK/blast.out" || fail "blast saw broken connections"

kill -0 "$SERVER_PID" 2>/dev/null || fail "server crashed during the blast"
RSS_KB=$(awk '/^VmRSS:/ { print $2 }' "/proc/$SERVER_PID/status" 2>/dev/null || echo 0)
echo "== soak: server RSS ${RSS_KB} kB (limit ${RSS_LIMIT_KB})"
[ "$RSS_KB" -gt 0 ] && [ "$RSS_KB" -lt "$RSS_LIMIT_KB" ] ||
  fail "RSS out of bounds: ${RSS_KB} kB"

echo "== soak: graceful shutdown"
kill -TERM "$SERVER_PID"
for _ in $(seq 1 100); do
  kill -0 "$SERVER_PID" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$SERVER_PID" 2>/dev/null; then
  kill -9 "$SERVER_PID" 2>/dev/null || true
  fail "server did not exit within 10s of SIGTERM"
fi
SERVER_PID=""

echo "== soak: PASS"
