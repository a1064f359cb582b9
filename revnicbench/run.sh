#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the
# repository root; every argument is passed to the benchmark, e.g.
#
#   bash revnicbench/run.sh --workload reverse --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and the benchmark's reports all live
# under .bench_build/ in the repository root, so a run writes nothing
# outside the checkout.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOFLAGS=

go -C revnicbench build -o "$build/bin/revnicbench" .
exec "$build/bin/revnicbench" "$@"
