#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it with the
# given arguments. Run from anywhere; it works from the repository root.
#   bash perfbench/run.sh --workload fig14_cold --seed 1 --seconds 10 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
# Keep every build artifact, cache and setting inside the checkout.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOTELEMETRY=off XDG_CONFIG_HOME="$out/config"
(cd perfbench && go build -o "$out/perfbench-bin" .)
exec "$out/perfbench-bin" "$@"
