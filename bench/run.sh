#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it with
# the given flags. Run it from the repository root:
#
#   bash bench/run.sh -workload study -seed 3 -seconds 15 -trace 0
#   bash bench/run.sh -seed 3 -count 5
#
# Everything the build and the runs leave behind goes under .bench_build/
# in the current directory: the Go build cache, the binary, the
# bundles and checkpoints of the runs, and the results files. The go
# command's own config files (telemetry counters) go there too, through
# XDG_CONFIG_HOME.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gomodcache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$root/bench" && go build -o "$build/canvassing-bench" .) >&2
exec "$build/canvassing-bench" "$@"
