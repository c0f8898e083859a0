#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it with the
# given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload medium-un-min --seed 1 --seconds 30 --trace 0
#
# The Go build cache, temporary files and the binary stay under
# .bench_build/ in the checkout.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS=
go build -o "$out/perfbench-bin" ./perfbench
exec "$out/perfbench-bin" "$@"
