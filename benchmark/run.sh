#!/usr/bin/env bash
# Builds the xbsim benchmark from source and runs it from the repository
# root, passing every argument through:
#
#   bash benchmark/run.sh --workload paper-full --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# repository root: the Go build cache, the binary, spools and span files.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off

(cd "$root/benchmark" && go build -o "$build/xbbench" .)
cd "$root"
exec "$build/xbbench" "$@"
