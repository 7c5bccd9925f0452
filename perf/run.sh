#!/usr/bin/env bash
# Build the benchmark from this checkout's sources, then run it:
#
#   bash perf/run.sh --workload attest-cold --seed 7 --seconds 20 --trace 0
#
# Any arguments main.exe takes work (see perf/README.md).  Build output
# goes to standard error, so the last line of standard output is the
# benchmark's own.  Nothing is written outside the checkout: dune's shared
# cache is off and the build stays in _build/.
set -euo pipefail
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perf/main.exe 1>&2
exec ./_build/default/perf/main.exe "$@"
