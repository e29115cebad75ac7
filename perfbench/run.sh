#!/usr/bin/env bash
# Builds the end-to-end benchmark from source, then runs it:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Build output goes to stderr and to .bench_build/, so the last line on
# stdout is the benchmark's JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
if command -v dune >/dev/null 2>&1; then dune=(dune); else dune=(opam exec -- dune); fi
"${dune[@]}" build --root . --build-dir .bench_build --profile release \
  --display quiet perfbench/main.exe 1>&2
exec .bench_build/default/perfbench/main.exe "$@"
