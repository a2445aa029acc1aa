#!/bin/sh
# Builds the benchmark from source and runs it from the repository root.
# The Go build cache and the binary live under .bench_build/ in the
# checkout, so nothing is read or written outside it (bar the toolchain).
set -eu
cd "$(dirname "$0")/.."
root=$PWD
mkdir -p "$root/.bench_build"
export GOCACHE="$root/.bench_build/go-cache" GOTOOLCHAIN=local
go build -C bench -o "$root/.bench_build/rrfdbench" .
exec "$root/.bench_build/rrfdbench" "$@"
