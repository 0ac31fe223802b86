#!/bin/sh
# bench_hot.sh — the go test -bench layer benchmarks, for humans:
# per-strategy checked-load micro timings, the sparse mmap/munmap,
# isolate-lifecycle and many-function cold-start (decode + validate,
# then compile per engine) timings (ns/op and B/op), the wavm run loop's dispatches/op and ns/dispatch on the five
# steady kernels, and the gemm/atax elide × rir macro benches (which
# assert equal results across the matrix). The numbers that are
# published come from benchmark/run.sh, not from here.
#
#     ./scripts/bench_hot.sh        # or: make bench-hot
set -eu

cd "$(dirname "$0")/.."

echo "== checked-load micro benchmarks (per strategy)"
go test -run '^$' -bench 'BenchmarkLoadU(8|32|64)PerStrategy' -benchtime 100ms ./internal/mem

echo "== sparse mmap/munmap (vmm: 64 MiB backing, 2 MiB committed)"
go test -run '^$' -bench 'BenchmarkMmapMunmapSparse' -benchtime 200ms -benchmem ./internal/vmm

echo "== isolate lifecycle (mem: New, grow+touch 2 MiB, Close; per strategy)"
go test -run '^$' -bench 'BenchmarkLifecyclePerStrategy' -benchtime 200ms -benchmem ./internal/mem

echo "== cold start of a 256-function module (front: decode + validate from bytes; then compile per engine, of a module already validated; -cpu 1,2: B/op is the passes' copying, 1-vs-2 the fan-out)"
go test -run '^$' -bench 'BenchmarkCompileManyFuncs' -benchtime 200ms -benchmem -cpu 1,2 ./internal/compiled

echo "== wavm run loop on the benchmark's steady kernels (trap, class Bench; dispatches/op is exact, ns/dispatch is the closure cost)"
go test -run '^$' -bench 'BenchmarkSteadyKernels' -benchtime 20x ./internal/compiled

echo "== codegen macro benchmarks (gemm, atax; trap strategy; elide x rir matrix)"
go test -run '^$' -bench 'Benchmark(Gemm|Atax)Compiled' -benchtime 1s .

echo "== register-IR on/off (gemm; trap strategy)"
go test -run '^$' -bench 'BenchmarkGemmCompiled/elide=on' -benchtime 1s .
