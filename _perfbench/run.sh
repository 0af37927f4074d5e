#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Every build and cache file goes to .bench_build at the repository root.
#
#   bash _perfbench/run.sh --workload sync-n200 --seed 1 --seconds 15 --trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go -C "$here" build -o "$build/perfbench" .
cd "$root"
exec "$build/perfbench" "$@"
