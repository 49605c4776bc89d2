#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every build and run artifact stays under .bench_build/ there.
#
#   bash perfbench/run.sh --workload simulate --seed 1 --seconds 25 --trace 0
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
