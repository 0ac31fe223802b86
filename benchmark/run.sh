#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ at the repository root and runs it.
#   benchmark/run.sh --workload steady --seed 1 --seconds 30 --trace 0   one run
#   benchmark/run.sh                  all four workloads, untraced then traced
#   benchmark/run.sh --aa             the untraced suite twice, compared against the bounds
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/gocache"
go build -C benchmark -o ../.bench_build/benchmark .
exec .bench_build/benchmark "$@"
