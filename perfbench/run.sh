#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload tune-cold --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache, the binary and the run's scratch
# directory, which the benchmark removes when it exits.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off
export GOFLAGS=

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --tmp "$out/tmp" "$@"
