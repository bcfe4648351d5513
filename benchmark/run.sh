#!/usr/bin/env bash
# The driver's entry point: builds the benchmark from the checkout it sits in
# and runs it with the arguments given. Everything the Go toolchain writes
# (build cache, work directories, telemetry counters) is kept inside the
# checkout, under .bench_build.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOPROXY=off GOTOOLCHAIN=local
go build -C benchmark -o "$build/benchmark" .
exec "$build/benchmark" "$@"
