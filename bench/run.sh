#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout (under
# .bench_build, which .gitignore names) and runs it with the arguments
# given. BENCHMARK.json names this script as the benchmark's command.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"
# Everything the toolchain writes stays inside the checkout: the build
# cache, the (empty) module cache and the toolchain's own counters.
(
  cd "$root/bench"
  GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" XDG_CONFIG_HOME="$build/config" \
    GOTOOLCHAIN=local go build -o "$build/bench" .
)
cd "$root"
exec "$build/bench" "$@"
