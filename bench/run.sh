#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Everything the Go toolchain and the benchmark write (build cache,
# module cache, toolchain config, temp files) is pointed into
# .bench_build/ at the checkout root, so a run touches nothing outside
# its checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" TMPDIR="$build/tmp"
export GOFLAGS=-mod=mod GOPROXY=off GOWORK=off GOTOOLCHAIN=local
(cd "$here" && go build -trimpath -buildvcs=false -o "$build/lsched-bench" .)
cd "$here"
exec "$build/lsched-bench" "$@"
