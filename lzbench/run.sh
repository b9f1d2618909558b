#!/usr/bin/env bash
# Build the benchmark from this checkout's sources, then run it.
# Run from the repository root:
#   bash lzbench/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
#   bash lzbench/run.sh --self-test
# Build output goes to stderr, so the last stdout line is the result.
set -euo pipefail
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)"
# Keep every build artifact inside the checkout's _build.
export DUNE_CACHE=disabled
dune build --root . --display quiet ./lzbench/lzbench.exe 1>&2
exec ./_build/default/lzbench/lzbench.exe "$@"
