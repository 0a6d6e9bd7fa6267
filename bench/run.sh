#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it with the given
# arguments, e.g.
#
#   bash bench/run.sh --workload steady-hits --seed 11 --seconds 20 --trace 0
#
# Run it from the root of a checkout. Everything the build and the run
# write (Go build cache, binary, daemon stores, trace output) stays under
# .bench_build in that checkout, and nothing is downloaded.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0

(cd bench && go build -o "$out/vmp-bench" .)
exec "$out/vmp-bench" -workdir "$out" "$@"
