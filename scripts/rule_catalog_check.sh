#!/usr/bin/env bash
# Registry <-> documentation consistency.
#
# The single source of truth for diagnostic rule codes and protocol
# error codes is Tsg_util.Diagnostic.Registry, surfaced by
# `tsg-analyze --list-rules`. This script fails when:
#   - a registered rule code is missing from the DESIGN.md catalog,
#   - a tsg-analyze rule (DOM/DET/IO1/REG/HOT/ANA) is missing from README.md,
#   - a registered protocol error code is missing from DESIGN.md,
#   - README.md or DESIGN.md mentions a rule-shaped code the registry
#     does not know (stale docs or a typo),
#   - a rule-table row in README.md or DESIGN.md gives a severity other
#     than the registered one (a cell such as "E/W", for a rule also
#     reported at a second severity, must include the registered letter).
set -euo pipefail
cd "$(dirname "$0")/.."

listing=$(dune exec -- tsg-analyze --list-rules)
codes=$(echo "$listing" | awk '/^Rules/{s=1;next} /^Protocol/{s=0} s&&NF{print $1}')
proto=$(echo "$listing" | awk '/^Protocol/{s=1;next} s&&NF{print $1}')

fail=0

for c in $codes; do
  if ! grep -q "$c" DESIGN.md; then
    echo "rule $c is registered but missing from the DESIGN.md catalog" >&2
    fail=1
  fi
done

for c in $(echo "$codes" | grep -E '^(DOM|DET|IO1|REG|HOT|ANA)' || true); do
  if ! grep -q "$c" README.md; then
    echo "tsg-analyze rule $c is missing from the README.md rule table" >&2
    fail=1
  fi
done

for c in $proto; do
  if ! grep -q "$c" DESIGN.md; then
    echo "protocol error code $c is missing from DESIGN.md" >&2
    fail=1
  fi
done

doc_codes=$(grep -ohE '\b[A-Z]{1,6}[0-9]{3}\b' README.md DESIGN.md | sort -u)
for c in $doc_codes; do
  if ! echo "$codes" | grep -qx "$c"; then
    echo "documented code $c is not in Diagnostic.Registry" >&2
    fail=1
  fi
done

# "CODE E" per registered rule: E(rror), W(arning) or I(nfo)
severities=$(echo "$listing" |
  awk '/^Rules/{s=1;next} /^Protocol/{s=0} s&&NF{print $1, toupper(substr($2,1,1))}')
for f in README.md DESIGN.md; do
  while read -r c cell; do
    want=$(echo "$severities" | awk -v c="$c" '$1==c{print $2}')
    [ -n "$want" ] || continue  # unknown codes are reported above
    case "/$cell/" in
      */"$want"/*) ;;
      *)
        echo "$f lists rule $c with severity $cell, but it is registered as $want" >&2
        fail=1
        ;;
    esac
  done < <(awk -F'|' '/^[|] `?[A-Z]+[0-9][0-9][0-9]`? [|]/{
             gsub(/[ `]/, "", $2); gsub(/ /, "", $3); print $2, $3}' "$f")
done

if [ "$fail" -eq 0 ]; then
  echo "rule catalog: registry and docs agree" \
    "($(echo "$codes" | wc -l) rules, $(echo "$proto" | wc -l) protocol codes)"
fi
exit $fail
