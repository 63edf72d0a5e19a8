#!/usr/bin/env bash
# Builds the benchmark from the checkout it runs in and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload city-4k --seed 1 --seconds 30 --trace 0
#
# Run from the repository root. The Go build cache, temporary files, the
# go command's own state (telemetry counters live under the user config
# directory) and the binary stay in .bench_build/ under the current
# directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomodcache"
export XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=mod GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOENV=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
