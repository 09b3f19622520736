#!/usr/bin/env bash
# Builds the benchmark from source and runs it, forwarding every argument:
#   bash fbpbench/run.sh --workload flat10k --seed 1 --seconds 30 --trace 0
# Build output goes to stderr so the result stays the last stdout line.
# The compiler's temporary files go to fbpbench/_out/tmp, not /tmp.
set -euo pipefail
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
export TMPDIR="$PWD/fbpbench/_out/tmp"
mkdir -p "$TMPDIR"
dune build --root . ./fbpbench/main.exe 1>&2
exec ./_build/default/fbpbench/main.exe "$@"
