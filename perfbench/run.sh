#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: build the benchmark from source inside
# the checkout, then run it from the checkout root with the caller's flags.
# Everything go writes (build cache, temp files, the binary) stays under
# .bench_build so a run reads and writes only inside its checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export GOFLAGS=-buildvcs=false GOPROXY=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" "$@"
