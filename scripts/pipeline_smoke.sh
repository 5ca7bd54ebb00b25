#!/usr/bin/env bash
# End-to-end smoke for the crash-safe incremental pipeline: a tsg-serve
# fed by tsg-pipe over --push, ~50 deltas (adds and removes) streamed
# with 1% injected faults on every pipeline fault site, a SIGKILL of
# tsg-pipe mid-stream, a restart that recovers the WAL and resumes the
# remaining deltas, and a client blast running throughout. The restart
# must adopt the state snapshot run 1 left (no PIPE003). At the end
# the served artifact must be byte-identical to a from-scratch mine of
# the exported corpus, and no client may have seen an error. Run from
# the repo root after `dune build` (or via `make pipeline-smoke`).
#
#   DELTAS=50 DURATION=15 scripts/pipeline_smoke.sh
set -euo pipefail

cd "$(dirname "$0")/.."
BIN=_build/install/default/bin
DELTAS="${DELTAS:-50}"
DURATION="${DURATION:-15}"
SUPPORT=0.3
FAULTS="wal.append:0.01,wal.fsync:0.01,wal.replay:0.01,pipeline.remine:0.01,pipeline.publish:0.01"
# the fault streams are deterministic per (seed, site); this seed is one
# where the 1% triggers actually fire within a 50-delta run
export TSG_FAULT_SEED="${TSG_FAULT_SEED:-1}"
TAX=examples/data/demo.tax

[ -x "$BIN/tsg-pipe" ] && [ -x "$BIN/tsg-serve" ] && [ -x "$BIN/tsg-mine" ] &&
  [ -x "$BIN/tsg-blast" ] ||
  { echo "pipeline-smoke: binaries missing — run 'dune build' first" >&2; exit 2; }

WORK=$(mktemp -d)
SERVER_PID=""
PIPE_PID=""
cleanup() {
  [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
  [ -n "$PIPE_PID" ] && kill -9 "$PIPE_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() { echo "pipeline-smoke: FAIL: $*" >&2; exit 1; }

# one request over bash's /dev/tcp, first reply line only
ask() {
  exec 3<>"/dev/tcp/127.0.0.1/$PORT"
  printf '%s\nquit\n' "$1" >&3
  IFS= read -r line <&3 || true
  exec 3<&- 3>&-
  printf '%s\n' "$line"
}

checksum_of() { sed -n 's/.* checksum \([^ ]*\).*/\1/p' <<<"$1"; }

# split a Serial database into one payload file per graph (each
# re-headed "t # 0": an add payload is a single-graph database)
split_db() { # <db> <dir>
  mkdir -p "$2"
  awk -v dir="$2" '
    /^t /  { if (f) close(f); n++; f = sprintf("%s/g_%03d.txt", dir, n);
             print "t # 0" > f; next }
    f      { print > f }' "$1"
}

# one add block per graph file
adds() { for g in "$@"; do echo add; cat "$g"; echo .; done; }

split_db examples/data/demo.db "$WORK/graphs"
GRAPHS=("$WORK"/graphs/g_*.txt)
[ "${#GRAPHS[@]}" -gt 0 ] || fail "could not split demo.db into graphs"

# Artifact bytes pinned across changes: demo.db's 40 graphs as 40 adds
# and one commit. The stamp's hex is the FNV-1a of the payload, so these
# two lines pin the content order, the text format and the hash kernel.
echo "== pipeline-smoke: stamp pins"
for pin in "0.3 # epoch 40 0285e8d60e7c4d48" "0.1 # epoch 40 f7a217ce02895538"; do
  support=${pin%% *}
  { adds "${GRAPHS[@]}"; echo commit; } |
    "$BIN/tsg-pipe" --wal "$WORK/pin-$support.wal" --taxonomy "$TAX" \
      --out "$WORK/pin-$support.pat" --support "$support" --quiet \
      >"$WORK/pin.out" 2>&1 || { cat "$WORK/pin.out" >&2; fail "tsg-pipe failed at support $support"; }
  stamp=$(head -n1 "$WORK/pin-$support.pat")
  [ "$stamp" = "${pin#* }" ] ||
    fail "support $support: stamp '$stamp', pinned '${pin#* }'"
done

# The canonical delta plan: DELTAS numbered command blocks, every 6th a
# remove of the oldest still-live add. Each block consumes exactly one
# WAL sequence number (delta i <-> seq i), so after a crash the durable
# head tells us exactly which blocks remain.
mkdir -p "$WORK/plan"
live=()
for i in $(seq 1 "$DELTAS"); do
  f=$(printf '%s/plan/d_%03d.txt' "$WORK" "$i")
  if [ $((i % 6)) -eq 0 ] && [ "${#live[@]}" -gt 0 ]; then
    printf 'remove %s\n' "${live[0]}" >"$f"
    live=("${live[@]:1}")
  else
    g=${GRAPHS[$(((i - 1) % ${#GRAPHS[@]}))]}
    adds "$g" >"$f"
    live+=("$i")
  fi
done

# emit blocks FROM..DELTAS with a commit every 10 deltas and a trailing
# commit; an optional pace keeps the stream alive long enough to be
# killed mid-run
emit_from() { # <from> [pace-seconds]
  local from=$1 pace=${2:-0} i
  for i in $(seq "$from" "$DELTAS"); do
    cat "$(printf '%s/plan/d_%03d.txt' "$WORK" "$i")"
    [ $((i % 10)) -eq 0 ] && echo commit
    [ "$pace" != 0 ] && sleep "$pace"
  done
  echo commit
}

# initial artifact so the server has something to serve before the first
# push replaces it
"$BIN/tsg-mine" --db examples/data/demo.db --taxonomy "$TAX" \
  --support 0.5 --save "$WORK/live.pat" --quiet >/dev/null

echo "== pipeline-smoke: starting tsg-serve"
"$BIN/tsg-serve" --patterns "$WORK/live.pat" --taxonomy "$TAX" \
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
echo "== pipeline-smoke: port $PORT, pid $SERVER_PID"

case "$(ask health)" in "ok health "*) ;; *) fail "server not healthy at start";; esac

echo "== pipeline-smoke: client blast in the background (${DURATION}s)"
"$BIN/tsg-blast" --port "$PORT" --duration "$DURATION" \
  --clients 2 --rate 50 --request "contains c0 -" >"$WORK/blast.out" 2>&1 &
BLAST_PID=$!

PIPE_ARGS=(--wal "$WORK/corpus.wal" --taxonomy "$TAX" --state "$WORK/pipe.state"
  --out "$WORK/live.pat" --push "127.0.0.1:$PORT" --support "$SUPPORT")

echo "== pipeline-smoke: run 1 — paced deltas, 1% faults, SIGKILL mid-run"
mkfifo "$WORK/stream"
emit_from 1 0.05 >"$WORK/stream" &
PRODUCER=$!
TSG_FAULTS="$FAULTS" "$BIN/tsg-pipe" "${PIPE_ARGS[@]}" \
  <"$WORK/stream" >"$WORK/run1.out" 2>"$WORK/run1.err" &
PIPE_PID=$!
disown "$PIPE_PID"   # keep bash quiet about the upcoming SIGKILL
sleep 1.5
kill -9 "$PIPE_PID" 2>/dev/null || fail "tsg-pipe finished before the kill"
while kill -0 "$PIPE_PID" 2>/dev/null; do sleep 0.05; done
PIPE_PID=""
kill "$PRODUCER" 2>/dev/null || true
wait "$PRODUCER" 2>/dev/null || true

# the recovered head tells us which deltas survived the kill
"$BIN/tsg-pipe" --wal "$WORK/corpus.wal" --taxonomy "$TAX" \
  --export "$WORK/corpus_mid.db" --quiet >"$WORK/export1.out" 2>/dev/null
HEAD=$(sed -n 's/^exported seq \([0-9]*\) .*/\1/p' "$WORK/export1.out")
[ -n "$HEAD" ] || { cat "$WORK/export1.out" >&2; fail "could not parse the recovered head"; }
[ "$HEAD" -lt "$DELTAS" ] || fail "kill landed after all $DELTAS deltas (head $HEAD) — nothing was interrupted"
echo "== pipeline-smoke: killed with $HEAD/$DELTAS deltas durable"

echo "== pipeline-smoke: run 2 — restart, resume deltas $((HEAD + 1)).. with faults still on"
emit_from $((HEAD + 1)) |
  TSG_FAULTS="$FAULTS" "$BIN/tsg-pipe" "${PIPE_ARGS[@]}" \
    >"$WORK/run2.out" 2>"$WORK/run2.err" ||
  { cat "$WORK/run2.err" >&2; fail "restarted tsg-pipe failed"; }
grep -q '^recovered seq ' "$WORK/run2.out" || fail "restart printed no recovery line"
# a state the restart cannot adopt costs only a silent full re-mine,
# which the byte-identity check below cannot see
if grep -q 'PIPE003' "$WORK/run2.err"; then
  cat "$WORK/run2.err" >&2
  fail "the restarted tsg-pipe refused its state snapshot (PIPE003)"
fi
FINAL=$(grep '^committed seq ' "$WORK/run2.out" | tail -n1)
[ -n "$FINAL" ] || { cat "$WORK/run2.out" >&2; fail "restart never committed"; }
echo "== pipeline-smoke: $FINAL"
FINAL_SEQ=$(sed -n 's/^committed seq \([0-9]*\) .*/\1/p' <<<"$FINAL")
FINAL_PATTERNS=$(sed -n 's/.* patterns \([0-9]*\) .*/\1/p' <<<"$FINAL")
FINAL_SUM=$(checksum_of "$FINAL")
[ "$FINAL_SEQ" = "$DELTAS" ] || fail "final commit at seq $FINAL_SEQ, expected $DELTAS"
[ -n "$FINAL_SUM" ] || fail "final commit carries no push checksum"

# the server must be serving exactly the final artifact
HEALTH=$(ask health)
case "$HEALTH" in "ok health "*) ;; *) fail "bad health reply: $HEALTH";; esac
SUM=$(checksum_of "$HEALTH")
[ "$SUM" = "$FINAL_SUM" ] || fail "served checksum $SUM != pushed checksum $FINAL_SUM"

echo "== pipeline-smoke: comparing against a from-scratch mine of the exported corpus"
"$BIN/tsg-pipe" --wal "$WORK/corpus.wal" --taxonomy "$TAX" \
  --export "$WORK/corpus_final.db" --quiet >"$WORK/export2.out" 2>/dev/null
grep -q "^exported seq $DELTAS " "$WORK/export2.out" ||
  { cat "$WORK/export2.out" >&2; fail "final export is not at seq $DELTAS"; }

# from-scratch reference artifact: a fresh WAL, no state, no faults —
# every graph of the exported corpus added in one batch and mined cold
split_db "$WORK/corpus_final.db" "$WORK/final_graphs"
adds "$WORK"/final_graphs/g_*.txt | "$BIN/tsg-pipe" --wal "$WORK/scratch.wal" --taxonomy "$TAX" \
  --out "$WORK/scratch.pat" --support "$SUPPORT" --quiet \
  >"$WORK/scratch.out" 2>&1 || { cat "$WORK/scratch.out" >&2; fail "from-scratch mine failed"; }
# the epoch stamps differ by design — the live artifact carries the
# real WAL watermark, the cold one a fresh WAL's — so the guarantee is
# payload identity plus a correct stamp on the live artifact
head -n1 "$WORK/live.pat" | grep -Eq "^# epoch $DELTAS [0-9a-f]{16}$" ||
  fail "live artifact is not stamped with epoch seq $DELTAS: $(head -n1 "$WORK/live.pat")"
cmp -s <(grep -v '^# epoch ' "$WORK/live.pat") \
       <(grep -v '^# epoch ' "$WORK/scratch.pat") ||
  fail "served artifact differs from the from-scratch mine"

# and tsg-mine agrees on the pattern count
MINE_PATTERNS=$("$BIN/tsg-mine" --db "$WORK/corpus_final.db" --taxonomy "$TAX" \
  --support "$SUPPORT" --quiet --save "$WORK/mine.pat" |
  sed -n 's/^\([0-9]*\) patterns in .*/\1/p')
[ "$MINE_PATTERNS" = "$FINAL_PATTERNS" ] ||
  fail "tsg-mine found $MINE_PATTERNS patterns, pipeline published $FINAL_PATTERNS"

wait "$BLAST_PID" || { cat "$WORK/blast.out" >&2; fail "blast failed"; }
grep -q "error replies:      0" "$WORK/blast.out" ||
  { cat "$WORK/blast.out" >&2; fail "a client saw an error reply"; }
grep -q "broken connections: 0" "$WORK/blast.out" ||
  { cat "$WORK/blast.out" >&2; fail "a client saw a broken connection"; }
kill -0 "$SERVER_PID" 2>/dev/null || fail "server died during the run"

R1=$(grep -c 'injected fault' "$WORK/run1.err" || true)
R2=$(grep -c 'injected fault' "$WORK/run2.err" || true)
[ $((R1 + R2)) -ge 1 ] ||
  fail "no injected fault fired — the run exercised no in-process recovery"
echo "== pipeline-smoke: OK ($DELTAS deltas, kill at $HEAD, $((R1 + R2)) injected faults recovered, $FINAL_PATTERNS patterns served)"
