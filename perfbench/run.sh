#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload sim-membound --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the current directory: the Go build cache, the binary, and the fleet
# workload's temporary cache directories.
set -euo pipefail

root=$(pwd)
src=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOWORK=off GOFLAGS=-mod=mod
export GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off

(cd "$src" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
