#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the given arguments; BENCHMARK.json's command. Everything the go command
# writes (binary, build and module caches, temporaries, its own usage
# counters) stays under .bench_build/ at the root of the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [ ! -f go.mod ]; then
	echo "benchmark: $root holds no ccai module to measure" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/mod" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOFLAGS=-modcacherw GOTOOLCHAIN=local
go build -C benchmark -o "$build/ccai-benchmark" .
exec "$build/ccai-benchmark" "$@"
