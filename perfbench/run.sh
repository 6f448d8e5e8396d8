#!/usr/bin/env bash
# Builds the benchmark and the programs it measures from this checkout,
# then runs one benchmark invocation. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-warm --seed 1 --seconds 15 --trace 0
#
# Everything built or written stays under $CARGO_TARGET_DIR (default
# .bench_build) in the checkout, the Go build cache included.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/bin" "$out/work"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
export XDG_CONFIG_HOME=$out/config # where the go command keeps its telemetry counters

cd "$root/perfbench"
go build -o "$out/bin/perfbench" .
go build -o "$out/bin/worker" ./worker
go build -o "$out/bin/serve" multihonest/cmd/serve
cd "$root"
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/work" "$@"
