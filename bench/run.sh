#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ and runs it from the checkout root.
# Everything the Go tool writes (build cache, temporary files, its own
# configuration and counters) is pointed inside .bench_build/, so a run
# touches nothing outside the checkout.
# Usage: bash bench/run.sh [flags of bench/main.go]
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	go build -C bench -o "$build/dascbenchmark" .
exec "$build/dascbenchmark" "$@"
