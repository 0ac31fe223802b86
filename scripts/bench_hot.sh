#!/bin/sh
# bench_hot.sh — the go test -bench layer benchmarks, for humans:
# per-strategy checked-load micro timings, the sparse mmap/munmap,
# isolate-lifecycle and many-function cold-start (decode + validate,
# then compile per engine) timings (ns/op and B/op), the wavm and wasmtime run loops' dispatches/op and ns/dispatch on the five
# steady kernels, the interpreter's guest-ops/op and ns/guest-op on the
# same kernels, one hostcall op per wasi workload (the guest/host
# boundary's layer number: ns/op and B/op), and the gemm/atax elide
# on/off macro benches (which assert equal results with and without
# elision). The numbers that are
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

echo "== wavm and wasmtime run loops on the benchmark's steady kernels (trap, class Bench; dispatches/op is exact, ns/dispatch is what one op costs)"
go test -run '^$' -bench 'BenchmarkSteadyKernels' -benchtime 20x ./internal/compiled

echo "== interpreter run loop on the same kernels (wasm3, class Bench; guest-ops/op is exact, ns/guest-op is the cost of one interpreted instruction)"
go test -run '^$' -bench 'BenchmarkSteadyInterp' -benchtime 10x ./internal/interp

echo "== hostcall op per wasi workload (NewEnv + Instantiate + Invoke + Close; wavm, class Bench; trap copies across the boundary, mprotect hands the host a live window)"
go test -run '^$' -bench 'BenchmarkHostcallOp' -benchtime 200ms -benchmem ./internal/workloads

echo "== codegen macro benchmarks (gemm, atax; trap strategy; wavm elide off and on)"
go test -run '^$' -bench 'Benchmark(Gemm|Atax)Compiled' -benchtime 1s .
