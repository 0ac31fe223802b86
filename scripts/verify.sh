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

echo "== go test ./..."
go test ./...

# Short race pass over the concurrency-heavy packages; the list and
# the reason each package is on it live with the Makefile's race target.
echo "== internal/tiered twice in one process (no compile state may leak into a second pass)"
go test -count=2 ./internal/tiered/

echo "== make race"
make race

# Quick elide differential: the bounds-check elision pass must be
# observationally equivalent to per-access checks — same digests,
# same trap causes, same trap offsets — under all five strategies,
# with the race detector watching the unchecked fast paths.
echo "== elide-diff (elide=on vs elide=off differential, -race)"
go test -race -count=1 -run 'TestDifferentialElide' -short ./internal/compiled/

# Quick register-IR differential: the stack→register lowering and its
# superinstruction fusion must be observationally equivalent to the
# stack-machine emit — same digests, same trap kinds and offsets —
# under all five strategies.
echo "== rir-diff (rir=on vs rir=off differential, -race)"
go test -race -count=1 -run 'TestDifferentialRIR' -short ./internal/compiled/

# Quick fork differential: a copy-on-write fork of a warmed template
# must be observationally identical to a fresh instantiation — same
# digests, same trap kinds and offsets — under all five strategies.
echo "== fork-diff (fork vs fresh instantiation differential, -race)"
go test -race -count=1 -run 'TestDifferentialFork' -short ./internal/compiled/

# Quick hostcall differential: the WASI host boundary must behave
# identically under all five strategies and both engines — same
# errnos and partial counts, same trap kinds for out-of-bounds iovec
# arrays, same final memory and file bytes, including when the guest
# grows memory mid-hostcall while views are open.
echo "== wasi-diff (host-boundary differential across strategies and engines, -race)"
go test -race -count=1 -run 'TestDifferentialHostcall' ./internal/wasi/

# Quick shared-memory differential: N worker threads invoking into
# one shared linear memory while a grower races them must produce the
# native twin's digest bit-for-bit under all five strategies — grow
# timing, fault ordering and lock contention must never leak into
# results. The race detector watches the whole topology: atomic
# accessors, the commit-then-publish grow protocol, and concurrent
# fault resolution on one mapping.
echo "== threads-diff (shared-memory grow-under-traffic differential, -race)"
go test -race -count=1 -run 'TestDifferentialShared' ./internal/harness/

# Profiler smoke: a short sampled gemm run must yield a non-empty
# profile whose pprof export parses, through the harness (the test)
# and through the CLI's -profile/-perf flags (the make target).
echo "== prof-smoke (sampled gemm run: non-empty folded profile + pprof parse)"
make prof-smoke

# The benchmark is a Go module of its own (it imports internal/...),
# so the root module's go test ./... does not reach its tests.
echo "== benchmark module tests"
(cd benchmark && go test ./...)

echo "verify: OK"
