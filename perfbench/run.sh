#!/usr/bin/env bash
# Builds perfbench from the checkout it runs in and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload paper-784 --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under .bench_build: the Go
# build cache, the Go config and telemetry directory, the binary, and the
# atlases and traces of the run.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" --workdir "$out/perfbench-work" "$@"
