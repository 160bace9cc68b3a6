#!/usr/bin/env bash
# Build ukbench from the sources in this checkout, then run it with the
# given arguments, e.g.
#
#   bash benchmark/run.sh --workload http_fast --seed 1 --seconds 10 --trace 0
#
# Run from the root of the checkout. Build output goes to stderr, so the
# last line on stdout stays ukbench's JSON result. The dune cache is off
# so the build writes only under _build/.
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . --display quiet ./benchmark/ukbench.exe 1>&2
exec ./_build/default/benchmark/ukbench.exe "$@"
