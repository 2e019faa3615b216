#!/usr/bin/env bash
# Benchmark entry point named by BENCHMARK.json.  Builds wfbench from the
# source checkout this script sits in, then runs it with the given
# arguments, e.g.
#
#   bash bench/wfbench/run.sh --workload travel --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr; the last line of stdout is the result.
set -euo pipefail
root="$(cd "$(dirname "$0")/../.." && pwd)"
cd "$root"
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "wfbench: $root holds no source checkout (dune-project and lib/ are missing)" >&2
  exit 2
fi
dune build --root . ./bench/wfbench/wfbench.exe 1>&2
exec ./_build/default/bench/wfbench/wfbench.exe "$@"
