#!/bin/sh
# Builds the benchmark from source into .bench_build/ and runs it with the
# given arguments. Start it from the root of a checkout (BENCHMARK.json's
# command does): sh bench/run.sh --workload paper_default --seed 1 --seconds 20 --trace 0
# Everything the Go toolchain writes (build cache, temporary files) is kept
# inside the checkout too.
set -eu
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
commit=$(git rev-parse HEAD 2>/dev/null || true)
go build -C bench -ldflags "-X main.commitID=$commit" -o "$build/roadknn-bench" .
exec "$build/roadknn-bench" "$@"
