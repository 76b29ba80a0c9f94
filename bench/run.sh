#!/usr/bin/env bash
# Builds the benchmark from source and runs it, touching nothing outside the
# checkout: the Go build cache, module path and temp files all live in
# .bench_build at the repository root. Arguments go to the benchmark
# unchanged, e.g.  bash bench/run.sh -workload flat-comm -seed 1 -trace 0
set -euo pipefail
cd "$(dirname "$0")"
build="$(cd .. && pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
go build -o "$build/dssp-bench" .
exec "$build/dssp-bench" "$@"
