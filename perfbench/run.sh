#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it.
#
#   bash perfbench/run.sh --workload agg-sliding --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Everything the build and the run write stays
# under .bench_build/ in that root: the Go build cache, the binary, durable
# state directories (deleted at the end of a run) and traced-run span files.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"
# Keep the Go toolchain's caches, temporary files and per-user files (env
# settings, telemetry counters) inside the checkout, and never download.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache"
export XDG_CONFIG_HOME="$out/config" GOENV=off
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -root "$out" "$@"
