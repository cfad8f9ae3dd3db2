#!/usr/bin/env bash
# Builds toporoutingd and the benchmark program from this checkout, then runs
# one benchmark workload:
#
#   bash bench/run.sh --workload topo_cold --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, binaries, daemon logs) stays
# under .bench_build/ in the checkout root. A checkout without the daemon's
# sources fails the build and exits non-zero before printing any result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/logs" "$out/gocache" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=
# With telemetry on (the default is "local"), the go command forks a
# detached upload process that can outlive this script. Turn it off in the
# private config directory before the first go command runs.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off > "$XDG_CONFIG_HOME/go/telemetry/mode"

go build -o "$out/bin/toporoutingd" ./cmd/toporoutingd
go -C bench build -o "$out/bin/bench" .

exec "$out/bin/bench" -daemon "$out/bin/toporoutingd" -logs "$out/logs" "$@"
