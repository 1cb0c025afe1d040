#!/bin/sh
# Build hpt and the benchmark from source, then run one workload:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run it from the root of a checkout.  Build output goes to stderr; the
# last line of standard output is the benchmark's JSON result.
set -e
cd "$(dirname "$0")/.."
# the shared dune cache lives outside the checkout: keep it off
export DUNE_CACHE=disabled
dune build --root . perfbench/bench.exe bin/hpt.exe 1>&2
exec ./_build/default/perfbench/bench.exe "$@"
