#!/usr/bin/env bash
# Builds the benchmark program from this checkout's sources and runs it with
# the given arguments. Run from the repository root:
#   bash perfbench/run.sh --workload cold-grid --seed 1 --seconds 12 --trace 0
# Every build output and Go cache lives under the build directory
# ($CARGO_TARGET_DIR, default .bench_build), inside the checkout.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"
export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath \
	XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
