#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the checkout root:
#
#   bash benchmark/run.sh --workload <name|all> --seed N [--seconds S] [--trace 1] [--repeat N]
#
# Everything the go tool writes (build cache, temp files, the binary)
# stays in .bench_build inside the checkout; the benchmark itself writes
# only .bench_run-* (removed on exit) and benchmark/out.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/modcache" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
(cd benchmark && go build -o "$build/benchmark" .)
exec "$build/benchmark" "$@"
