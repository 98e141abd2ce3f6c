#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Run from the root of a checkout:
#
#   bash bench/run.sh --workload single-stream --seed 42 --seconds 10 --trace 0
#
# It keeps everything the Go toolchain and the benchmark write inside
# the checkout (.bench_build/, listed in .gitignore), builds the
# benchmark from source and hands it the arguments. The benchmark then
# builds cmd/bounced itself. In a directory without the repository's
# sources the build fails and so does this script.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/bin"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local

go build -o "$build/bin/bench" ./bench
exec "$build/bin/bench" "$@"
