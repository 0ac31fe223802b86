GO ?= go

.PHONY: build test vet race verify check bench-hot figures fuzz-smoke prof-smoke trace-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Race pass over the packages with goroutines or unsynchronised fast
# paths; this is also where the differential suites run in full,
# without -short: every row over internal/difftest's Check (compiled
# pipelines, OOB partition, fork and counted axes, hostcall) and the
# shared-memory fixture.
#   fanout, wasm, validate, compiled, interp, flatten, rir: a cold
#     start runs on fanout's workers from the code section on — decode
#     and validate per body, then flatten → rir → elide → emit per
#     function — and the validated mark on a module is read and written
#     by engines compiling it at once; FuzzDecode's and FuzzValidate's
#     seeds run here too. The compiled engines' unchecked fast paths
#     only show a race here
#   wasi: one Env serves hostcalls from every worker of a guest
#   workloads: the wasi file images are built once and shared by every
#     env (TestWASINewEnvConcurrent builds them from eight goroutines);
#     every workload's differential against its native twin runs here
#   difftest: the harness held to catching a perturbed cell
#   harness: the RunShared fixture, N workers and a grower on one
#     shared memory
#   prof: a sampler reading live state
race:
	$(GO) test -race -count=1 ./internal/obs/ ./internal/vmm/ ./internal/mem/ ./internal/hazard/ ./internal/modcache/ ./internal/harness/ ./internal/fanout/ ./internal/wasm/ ./internal/validate/ ./internal/compiled/ ./internal/interp/ ./internal/flatten/ ./internal/rir/ ./internal/tiered/ ./internal/core/ ./internal/wasi/ ./internal/workloads/ ./internal/difftest/ ./internal/prof/

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

# Trace smoke: build the CLI and drive a short traced uffd run through
# it (TestTraceSmoke): its strategy's attribution row, the line saying
# how much of the run the timeline file holds, and a file that parses
# as JSON. Counts and presence only; no timing is compared.
trace-smoke:
	$(GO) test -count=1 -run 'TestTraceSmoke' -v ./cmd/leapsbench/

# Short coverage-guided fuzz pass over the binary decoder, the
# validator, the one differential target (FuzzDiff: a program family
# or a WASI iovec scenario on every engine and compiled pipeline,
# through internal/difftest's Check), and the shared-memory
# grow-under-traffic differential (~10s each); regressions land in
# testdata/fuzz/.
fuzz-smoke:
	$(GO) test ./internal/wasm/ -run '^$$' -fuzz FuzzDecode -fuzztime 10s
	$(GO) test ./internal/validate/ -run '^$$' -fuzz FuzzValidate -fuzztime 10s
	$(GO) test ./internal/compiled/ -run '^$$' -fuzz FuzzDiff -fuzztime 10s
	$(GO) test ./internal/harness/ -run '^$$' -fuzz FuzzSharedGrowDiff -fuzztime 10s

# The full tier-1 gate: build + vet + gofmt + tests (internal/tiered
# twice in one process) + race pass.
verify:
	./scripts/verify.sh

# Everything the repo can check about itself: the tier-1 gate, then a
# correctness pass of the benchmark — 3 s per workload, every digest
# held to its native twin / Go evaluator / closed form, non-zero exit
# on any failed op. It compares no timing: gains and regressions are
# judged by interleaved parent/change pairs (benchmark/README.md).
check: verify
	for w in steady coldstart churn hostcall; do \
		./benchmark/run.sh --workload $$w --seed 1 --seconds 3 --trace 0 || exit 1; \
	done

# Layer benchmarks (go test -bench): per-strategy checked-load micro
# timings, sparse mmap/munmap, per-strategy isolate lifecycle, the
# many-function cold compile, the wavm, wasmtime and interpreter run loops on
# the steady kernels, and the gemm/atax elide on/off macro benches.
bench-hot:
	./scripts/bench_hot.sh

figures:
	$(GO) run ./cmd/leapsbench -fig all
