#!/usr/bin/env bash
# The driver's entry point (BENCHMARK.json "command"): builds the
# benchmark from source into .bench_build/ at the root of the checkout
# and runs it with the given flags. Everything the Go toolchain writes —
# build cache, temporary files, the binary — stays inside the checkout,
# so the first run in a fresh checkout compiles the standard library too.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ]; then
	echo "benchmark/run.sh: no go.mod beside benchmark/: not a checkout of the repository" >&2
	exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/mod"
export GOTOOLCHAIN=local GOPROXY=off
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
