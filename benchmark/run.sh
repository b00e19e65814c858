#!/usr/bin/env bash
# Build file and entry point of the benchmark, the command BENCHMARK.json
# names. It compiles ./benchmark from source with every Go build output
# (cache, temporaries, binary) kept under .bench_build/ in the checkout, so
# a run reads and writes nothing outside it, then hands over to the binary.
# A second run finds the build up to date and only re-links if needed.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -o "$build/lyra-benchmark" ./benchmark
exec "$build/lyra-benchmark" "$@"
