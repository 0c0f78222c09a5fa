#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#   bash bench/run.sh --workload paper-grid --seed 42 --seconds 25 --trace 0
#
# The binary, the Go build cache and traced runs' files all go under
# .bench_build/ at the repository root, so a run writes nothing outside
# the checkout.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOENV=off

(cd "$root/bench" && go build -o "$build/bench" .)
exec "$build/bench" -trace-dir "$build/trace" "$@"
