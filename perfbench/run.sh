#!/usr/bin/env bash
# Builds the benchmark and cmd/axiomd from the checkout it is run in, then
# runs one workload:
#
#   bash perfbench/run.sh --workload fluid-characterize --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under $CARGO_TARGET_DIR (default .bench_build) in that root, including
# the Go build cache.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"

export GOCACHE=$out/gocache GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0

# The benchmark module replaces "repro" with the parent directory, so a
# directory that holds only the benchmark fails here, before any result.
(cd perfbench && go build -o "$out/perfbench" .)
go build -o "$out/axiomd" ./cmd/axiomd

exec "$out/perfbench" -root "$root" -bin "$out" "$@"
