#!/usr/bin/env bash
# Build the benchmark from this checkout's sources and run it.
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Everything the build and the runs
# write stays under the build directory ($CARGO_TARGET_DIR when set,
# else .bench_build), including the Go build cache.
set -euo pipefail

root=$(pwd)
bench="$root/perfbench"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/gotmp"
export GOPATH="$build/gopath"
export GOTOOLCHAIN=local
export GOWORK=off
export XDG_CONFIG_HOME="$build/config"
mkdir -p "$GOTMPDIR" "$XDG_CONFIG_HOME"

go build -C "$bench" -o "$build/perfbench" . >&2
exec "$build/perfbench" -out "$build/perfbench-traces" "$@"
