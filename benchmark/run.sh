#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# given arguments. Everything the build writes (binary, Go build cache)
# stays under .bench_build/ at the root of the checkout; nothing is
# downloaded. This is the command BENCHMARK.json names.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache"
export GOTOOLCHAIN=local GOPROXY=off

bin="$build/sdvm-benchmark"
# The commit is stamped into the binary where git can tell it; a checkout
# that is no repository (or one git refuses to read) builds without.
(cd "$here" && { go build -o "$bin" . 2>/dev/null || go build -buildvcs=false -o "$bin" .; })

exec "$bin" -out "$here/out" "$@"
