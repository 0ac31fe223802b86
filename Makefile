GO ?= go

.PHONY: build test vet race verify check bench bench-quick bench-hot bench-serve bench-wasi bench-threads bench-gate figures fuzz-smoke prof-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Short race pass over the concurrency-heavy packages (the metrics
# registry and span tracing, the simulated VM subsystem, linear
# memory and the arena pool, the fault injector, the hazard-pointer
# domain, the module cache's singleflight path, the sweep scheduler,
# the compiled engines' unchecked fast paths and, with the
# interpreter and the flattener, the per-function compile fan-out
# (core.CompileFuncs' workers run flatten → rir → elide → emit
# concurrently; TestCompileSameOnAnyWorkerCount compiles 256
# functions on 4 workers with tracing on), the register-IR
# lowering's process-wide counters, the tiered engine's background
# workers and GC controller, the live telemetry server streaming
# from the trace ring, the template/fork paths: concurrent CoW
# forks in core and the vmm page-duplication machinery behind them,
# the WASI layer, whose Env serves hostcalls from every worker of a
# multithreaded guest, and the shared-memory paths: atomic accessors
# and the grow-under-traffic protocol in mem, cross-instance
# attachment in core, and the RunShared contention driver in
# harness).
race:
	$(GO) test -race -count=1 ./internal/obs/ ./internal/vmm/ ./internal/mem/ ./internal/faultinject/ ./internal/hazard/ ./internal/modcache/ ./internal/harness/ ./internal/compiled/ ./internal/interp/ ./internal/flatten/ ./internal/rir/ ./internal/tiered/ ./internal/telemetry/ ./internal/core/ ./internal/wasi/ ./internal/prof/

# Profiler smoke: sample a short gemm run through the harness and
# assert the profile is non-empty and its pprof export parses
# (TestProfSmoke), then exercise the single-run -profile/-perf path
# end to end via the CLI.
prof-smoke:
	$(GO) test -count=1 -run 'TestProfSmoke' -v ./internal/prof/
	$(GO) run ./cmd/leapsbench -workload gemm -class test -engine wavm -strategy trap -elide=false -measure 4 -profile /tmp/leaps-prof-smoke -perf > /dev/null
	@test -s /tmp/leaps-prof-smoke.folded || { echo "prof-smoke: empty folded profile"; exit 1; }
	@test -s /tmp/leaps-prof-smoke.pb.gz || { echo "prof-smoke: empty pprof profile"; exit 1; }
	@rm -f /tmp/leaps-prof-smoke.folded /tmp/leaps-prof-smoke.pb.gz
	@echo "prof-smoke: OK"

# Short coverage-guided fuzz pass over the binary decoder, the
# validator, the elide on/off differential, the register-IR on/off
# differential, the WASI host-boundary cross-strategy differential,
# and the shared-memory grow-under-traffic differential (~10s each);
# regressions land in testdata/fuzz/.
fuzz-smoke:
	$(GO) test ./internal/wasm/ -run '^$$' -fuzz FuzzDecode -fuzztime 10s
	$(GO) test ./internal/validate/ -run '^$$' -fuzz FuzzValidate -fuzztime 10s
	$(GO) test ./internal/compiled/ -run '^$$' -fuzz FuzzElideDiff -fuzztime 10s
	$(GO) test ./internal/compiled/ -run '^$$' -fuzz FuzzRIRDiff -fuzztime 10s
	$(GO) test ./internal/wasi/ -run '^$$' -fuzz FuzzWASIDiff -fuzztime 10s
	$(GO) test ./internal/harness/ -run '^$$' -fuzz FuzzSharedGrowDiff -fuzztime 10s

# The full tier-1 gate: build + vet + gofmt + tests (internal/tiered
# twice in one process) + race pass.
verify:
	./scripts/verify.sh

# Everything the repo can check about itself: the tier-1 gate (which
# includes the telemetry endpoint smoke tests and the Chrome/Perfetto
# trace validity tests) plus the benchmark regression gate against
# the committed BENCH_*.json baselines.
check: verify bench-gate

# Benchmark regression gate: quick re-measurement of the cache sweep
# and elision suites, compared (with tolerances) against the
# committed BENCH_sweep.json / BENCH_bce.json; verdict and provenance
# land in BENCH_gate.json.
bench-gate:
	./scripts/bench_check.sh

bench:
	$(GO) test -bench=. -benchmem .

# Cold-serial vs warm-parallel cache benchmark: runs a small sweep
# twice and writes wall clocks, hit rate and compile-ns-saved to
# BENCH_sweep.json.
bench-quick:
	$(GO) run ./cmd/leapsbench -benchsweep BENCH_sweep.json -quick

# Hot-path benchmarks of the bounds-check elision pass: per-strategy
# checked-load micro timings, the sparse mmap/munmap and per-strategy
# isolate-lifecycle layer benchmarks, the gemm/atax elide on/off macro
# benches, and the machine-readable BENCH_bce.json artifact.
bench-hot:
	./scripts/bench_hot.sh

# Serverless serving benchmark: open-loop Poisson arrivals against
# the cold/warm/fork provisioning arms over all five strategies;
# exact p50/p95/p99 time-to-ready percentiles and CoW traffic land in
# BENCH_serve.json.
bench-serve:
	$(GO) run ./cmd/leapsbench -benchserve BENCH_serve.json

# Hostcall-boundary benchmark: the syscall-heavy wasi workloads
# (logscan, kvstore, echo) across all five strategies, with
# per-strategy hostcall-bucket attribution from the causal trace;
# results land in BENCH_wasi.json.
bench-wasi:
	$(GO) run ./cmd/leapsbench -benchwasi BENCH_wasi.json

# Shared-memory grow-under-traffic benchmark: worker threads invoking
# into one shared linear memory while a grower expands it, across all
# five strategies; per-strategy grow-stall vs clean p99, mmap-lock
# waits, and the disk-tier second-process provenance check land in
# BENCH_threads.json.
bench-threads:
	$(GO) run ./cmd/leapsbench -benchthreads BENCH_threads.json

figures:
	$(GO) run ./cmd/leapsbench -fig all
