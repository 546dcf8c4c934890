#!/usr/bin/env bash
# Build `xrefine` and the end-to-end benchmark from source, then run the
# benchmark with the arguments given. Run it from the root of a checkout:
#
#   bash bench/e2e/run.sh --workload search_cold --seed 7 --seconds 10 --trace 0
#
# Build output goes to stderr, so the benchmark's verdict stays the last
# line of stdout. Outside a full checkout the build fails and so does
# this script.
set -euo pipefail
dune build --root . --cache=disabled --display=quiet \
  ./bin/xrefine.exe ./bench/e2e/e2e_bench.exe 1>&2
exec ./_build/default/bench/e2e/e2e_bench.exe --server ./_build/default/bin/xrefine.exe "$@"
