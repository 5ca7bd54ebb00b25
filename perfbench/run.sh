#!/usr/bin/env bash
# Build the benchmark and tsg-serve from this checkout's sources, then run
# one benchmark run:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the root of the checkout. dune's shared cache is off so the
# build reads and writes only inside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
export XDG_CACHE_HOME="$PWD/.perfbench/cache"
unset TSG_DOMAINS TSG_FAULTS TSG_FAULT_SEED TSG_DEBUG_CHECKS
dune build --root . --display quiet ./perfbench/bench.exe ./bin/tsg_serve.exe 1>&2
exec ./_build/default/perfbench/bench.exe "$@"
