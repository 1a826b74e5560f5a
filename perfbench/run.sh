#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments, e.g.
#
#   bash perfbench/run.sh --workload sim-place --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The Go build cache and the binary live in
# .bench_build/ under the root, so nothing outside the checkout is written;
# the first run in a fresh checkout compiles everything and takes longer.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod are needed)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off
go -C "$root/perfbench" build -o "$build/perfbench" .
if [[ " $* " == *" deploy-rest "* ]]; then
	go -C "$root/perfbench" build -o "$build/snoozed" snooze/cmd/snoozed
fi
exec "$build/perfbench" "$@"
