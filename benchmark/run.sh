#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the arguments given. The Go build cache and temporary files are kept
# under .bench_build/ so nothing outside the checkout is read or written;
# `go run ./benchmark ARGS` is the same program on your own build cache.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal ]; then
    echo "benchmark/run.sh: run from the root of a full checkout (go.mod and internal/ are needed to build)" >&2
    exit 2
fi
export GOCACHE="$PWD/.bench_build/gocache" GOTMPDIR="$PWD/.bench_build/gotmp" GOTOOLCHAIN=local
mkdir -p "$GOCACHE" "$GOTMPDIR"
go build -o .bench_build/benchmark ./benchmark
exec .bench_build/benchmark "$@"
