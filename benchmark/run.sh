#!/usr/bin/env bash
# The command BENCHMARK.json names: build the benchmark from source inside
# the checkout, then run it with the driver's arguments. Everything the
# build writes — Go's build cache included — stays under .bench_build/.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
