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

echo "== go test ./..."
go test ./...

echo "== internal/tiered twice in one process (no compile state may leak into a second pass)"
go test -count=2 ./internal/tiered/

# The race pass (package list and reasons: the Makefile's race target)
# is also where the elide, rir, fork, hostcall and shared-memory
# differentials run, in full and under the race detector.
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
