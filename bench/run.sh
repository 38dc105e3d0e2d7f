#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#   bash bench/run.sh --workload hybrid_null --seed 7 --seconds 10 --trace 0
#
# The binary, the Go build cache and the compiler's scratch files live in
# .bench_build/ at the repository root, so building writes nothing outside
# the checkout. bench/ is a module of its own that imports the repository's
# packages through a replace directive; without the repository around it
# the build, and so this script, fails.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" XDG_CONFIG_HOME="$build/config" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off
go -C "$root/bench" build -o "$build/rpgo-bench" .
exec "$build/rpgo-bench" "$@"
