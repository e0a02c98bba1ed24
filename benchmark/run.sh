#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the root of the
# checkout. Everything the build and the run write stays inside the
# checkout: Go's caches and the binary under .bench_build/, results,
# traces and the file-store probe's directory under benchmark/out/.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" # where the go command keeps its telemetry counters
export GOTOOLCHAIN=local GOPROXY=off
go build -C benchmark -o "$build/benchmark" .
if [ "${1:-}" = compare ]; then
	exec "$build/benchmark" "$@"
fi
exec "$build/benchmark" -out benchmark/out "$@"
