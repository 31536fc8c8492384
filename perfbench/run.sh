#!/usr/bin/env bash
# Builds the repository benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload graph-stream --seed 1 --seconds 50 --trace 0
#
# Run it from the repository root. Every build and run output stays
# under .bench_build/ in that root: the Go build cache, the binary,
# temporary stores and the span files of traced runs.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOENV=off

(cd "$root/perfbench" && go build -buildvcs=false -o "$build/perfbench" .)

sha=none
if [ -e "$root/.git" ]; then
	sha=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo none)
fi
exec "$build/perfbench" -out "$build/perfbench-out" -git-sha "$sha" "$@"
