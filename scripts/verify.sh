#!/bin/sh
# verify.sh — the repo's tier-1 gate plus a short race pass over the
# concurrency-heavy packages. Run from the repository root:
#
#     ./scripts/verify.sh        # or: make verify
set -eu

cd "$(dirname "$0")/.."

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

echo "== gofmt -l (any file it names is a failure)"
test -z "$(gofmt -l . | tee /dev/stderr)"

# One engine contract: core.Engine / CompiledModule / Instance are what
# every engine implements, so nothing outside tests asks an engine (or
# a cache) whether it can do something.
echo "== no engine capability probes (type assertions to core interfaces) outside tests"
probes=$(grep -rnE '\.\(core\.[A-Z][A-Za-z]*\)' --include='*.go' . | grep -v '_test.go' | grep -v '^./benchmark/' || true)
test -z "$probes" || { echo "$probes"; exit 1; }

# One trace vocabulary: the ring holds spans, and a fact that is not a
# span is a counter, gauge or histogram its owner registers. Point
# events (Scope.Emit, the obs.Ev* kinds) are gone; nothing outside the
# obs package and tests names an event kind.
echo "== no point events (.Emit( or obs.Ev*) outside internal/obs and tests"
events=$(grep -rnE '\.Emit\(|obs\.Ev[A-Z]' --include='*.go' . | grep -v '_test.go' | grep -v '^./internal/obs/' | grep -v '^./benchmark/' || true)
test -z "$events" || { echo "$events"; exit 1; }

# One host boundary: a WASI host function reaches guest memory through
# mem.Memory.Bytes, one checked range that traps out of bounds under
# every strategy. A scalar accessor would clamp-redirect under clamp and
# write past the wasm size under none.
echo "== no scalar guest-memory accessors (Mem.Load*/Mem.Store*) in internal/wasi outside tests"
scalars=$(grep -nE '\.Mem\.(Load|Store)[A-Za-z0-9]*\(' internal/wasi/*.go | grep -v '_test.go' || true)
test -z "$scalars" || { echo "$scalars"; exit 1; }

# One run loop: the compiled engines run their stream through one
# switch (Instance.run), so no op is a closure over an instance and a
# frame base again.
echo "== no per-op closures in internal/compiled outside tests"
closures=$(grep -nE 'func\(inst \*Instance, base' internal/compiled/*.go | grep -v '_test.go' || true)
test -z "$closures" || { echo "$closures"; exit 1; }

echo "== go test ./..."
go test ./...

# The cold-start layer bench (BenchmarkCompileManyFuncs) runs once so
# that it cannot rot; one iteration times nothing and gates nothing.
echo "== BenchmarkCompileManyFuncs, one iteration"
go test -run '^$' -bench CompileManyFuncs -benchtime 1x ./internal/compiled/

# The same for the compiled engines' run-loop layer bench (wavm and
# wasmtime on the steady kernels) and the interpreter's.
echo "== BenchmarkSteadyKernels, one iteration"
go test -run '^$' -bench SteadyKernels -benchtime 1x ./internal/compiled/

echo "== BenchmarkSteadyInterp, one iteration"
go test -run '^$' -bench SteadyInterp -benchtime 1x ./internal/interp/

# And for the guest/host boundary's layer bench (one hostcall op per
# wasi workload, which also holds each op's digest to its native twin).
echo "== BenchmarkHostcallOp, one iteration"
go test -run '^$' -bench HostcallOp -benchtime 1x ./internal/workloads/

# A ceiling on the bounds checks Go inserts in the interpreter (the
# engine's own checks on its value stack, ROADMAP item 8), so that
# they cannot creep back. The one-switch run loop had 268; since exec
# addresses its frame through a pointer, over slots fold proves at
# compile time, and it reads br_table's side table through the range
# fold proves, 38 remain, none of them on a slot or a table entry exec
# addresses. Lower the ceiling when a change removes some.
echo "== Go-inserted bounds checks in internal/interp (ceiling 38)"
bce=$(go build -gcflags=leapsandbounds/internal/interp=-d=ssa/check_bce/debug=1 ./internal/interp/ 2>&1 | grep -c 'Found Is')
echo "$bce checks"
test "$bce" -le 38 || { echo "internal/interp: $bce Go-inserted bounds checks, ceiling 38"; exit 1; }

# The same ceiling for the compiled engines (ROADMAP item 8's emit
# half): 382 before every access took one address form, 343 after, 334
# since range-check plans are linear forms, 330 since the back half's
# tables are a compile worker's scratch, 305 since elision is loop
# versioning only, 298 since elision versions only call-free,
# unit-step loops, 117 since the closures are gone: run is one switch
# that addresses its frame through a pointer, over slots prove checks
# at compile time. None of the 117 is on a frame slot; 33 are the run
# loop's reads of a pair's halves. Lower it when a change removes some.
echo "== Go-inserted bounds checks in internal/compiled (ceiling 117)"
bce=$(go build -gcflags=leapsandbounds/internal/compiled=-d=ssa/check_bce/debug=1 ./internal/compiled/ 2>&1 | grep -c 'Found Is')
echo "$bce checks"
test "$bce" -le 117 || { echo "internal/compiled: $bce Go-inserted bounds checks, ceiling 117"; exit 1; }

# The inline bounds check: every checked-access case of the compiled
# run loop compares its end against mem's watermark in place and calls
# mem only on a miss, which holds only while Memory.Watermark inlines
# into run. 27 cases read it (11 loads, 6 stores, 10 pair halves);
# every one must inline, and the count may not drop.
echo "== inlined watermark compares in internal/compiled's run loop (floor 27)"
sites=$(grep -c 'm\.Watermark()' internal/compiled/run.go)
inl=$(go build -gcflags=leapsandbounds/internal/compiled=-m ./internal/compiled/ 2>&1 | grep '^internal/compiled/run.go:' | grep -c 'inlining call to mem.(\*Memory).Watermark')
echo "$inl of $sites sites inline"
test "$sites" -ge 27 && test "$inl" -eq "$sites" || { echo "internal/compiled: $inl of $sites watermark reads in run.go inline, floor 27"; exit 1; }

echo "== internal/tiered twice in one process (no compile state may leak into a second pass)"
go test -count=2 ./internal/tiered/

# The race pass (package list and reasons: the Makefile's race target)
# is also where the differentials run, in full and under the race
# detector: every row over internal/difftest's Check (the compiled
# pipelines, the OOB partition, the fork and counted axes, hostcalls)
# and the shared-memory fixture.
echo "== make race"
make race

# Profiler smoke: a short sampled gemm run must yield a non-empty
# profile whose pprof export parses, through the harness (the test)
# and through the CLI's -profile/-perf flags (the make target).
echo "== prof-smoke (sampled gemm run: non-empty folded profile + pprof parse)"
make prof-smoke

# Trace smoke: a short traced run through the CLI prints its strategy's
# attribution row and the timeline line, and writes a JSON file.
echo "== trace-smoke (traced uffd gemm run: attribution row, timeline line, JSON parses)"
make trace-smoke

# The benchmark is a Go module of its own (it imports internal/...),
# so the root module's go test ./... does not reach its tests.
echo "== benchmark module tests"
(cd benchmark && go test ./...)

# Docs describe the code that exists: every `make <target>` and every
# `leapsbench -<flag>` the docs name must be a Makefile target / a flag
# in the CLI's usage, and a flag that was removed must not linger in
# prose either (a bare `-serve` or `-parallel` has no `leapsbench` in
# front of it for the command scan to see).
echo "== docs name only make targets and leapsbench flags that exist"
docs="README.md DESIGN.md EXPERIMENTS.md .claude/skills/verify/SKILL.md"
targets=$(sed -n 's/^\([a-z][a-z-]*\):.*/\1/p' Makefile)
flags=$(go run ./cmd/leapsbench -h 2>&1 | sed -n 's/^  -\([a-z-]*\).*/\1/p')
stale=$(
	for t in $(grep -ohE '(^|`)make [a-z][a-z-]+' $docs | sed 's/.*make //' | sort -u); do
		echo "$targets" | grep -qx -- "$t" || echo "make $t"
	done
	for f in $(grep -ohE 'leapsbench +[^`#|>]*' $docs | grep -oE ' -[a-z][a-z-]*' | sort -u); do
		echo "$flags" | grep -qx -- "${f#-}" || echo "leapsbench $f"
	done
	for f in serve parallel; do
		echo "$flags" | grep -qx -- "$f" || grep -nE -- "(^|[^a-z-])-$f([^a-z-]|\$)" $docs | sed "s/^/removed flag -$f still in /"
	done
)
test -z "$stale" || { echo "named in the docs but gone from the code:"; echo "$stale"; exit 1; }

echo "verify: OK"
