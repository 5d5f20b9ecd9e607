#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it.
# Run from the repository root:
#
#   bash benchmark/run.sh --workload mintime-random-150k --seed 1 --seconds 20 --trace 0
#   bash benchmark/run.sh compare results-a results-b
#
# Everything the build and the run write stays in .bench_build/ at the
# root: the Go build cache, temporary files, the binary, store
# directories of the advised workload and trace dumps.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go -C benchmark build -buildvcs=false -o "$build/benchrun" .
exec "$build/benchrun" "$@"
