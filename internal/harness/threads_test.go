package harness

import (
	"strings"
	"testing"
	"time"

	"leapsandbounds/gen"
	"leapsandbounds/internal/mem"
	"leapsandbounds/internal/obs"
	"leapsandbounds/internal/workloads"
)

// TestDifferentialShared is the cross-strategy differential of the
// shared-memory scenario: all five strategies run the grow-under-
// traffic workload with live worker threads and a racing grower, and
// every digest must equal the native twin bit-for-bit — grow timing,
// fault ordering, and lock contention must never leak into results.
func TestDifferentialShared(t *testing.T) {
	digests := map[mem.Strategy]uint64{}
	for _, s := range mem.Strategies() {
		t.Run(s.String(), func(t *testing.T) {
			res, err := RunShared(ThreadsOptions{
				Strategy:  s,
				Class:     workloads.Test,
				Invokes:   8,
				GrowEvery: 50 * time.Microsecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.DigestOK {
				t.Fatalf("digest %#x does not match the native twin", res.Digest)
			}
			digests[s] = res.Digest
		})
	}
	want := digests[mem.None]
	for s, d := range digests {
		if d != want {
			t.Errorf("strategy %v digest %#x, want %#x", s, d, want)
		}
	}
}

// TestSharedLaneOverride: fewer workers than the module's lanes is a
// valid configuration; more is refused.
func TestSharedLaneOverride(t *testing.T) {
	res, err := RunShared(ThreadsOptions{
		Strategy: mem.Trap,
		Class:    workloads.Test,
		Workers:  2,
		Invokes:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Workers != 2 || !res.DigestOK {
		t.Fatalf("workers=%d digestOK=%v", res.Workers, res.DigestOK)
	}
	geo := workloads.SharedShape(workloads.Test)
	if _, err := RunShared(ThreadsOptions{
		Strategy: mem.Trap,
		Class:    workloads.Test,
		Workers:  geo.Workers + 1,
	}); err == nil {
		t.Fatal("oversubscribed workers accepted")
	}
}

// TestSharedZeroResultExport: a guest whose work() returns nothing
// fails the run with an error naming the lane; the fixture used to
// index the empty result slice while building that very error, and
// the panic took the worker goroutine — and the test binary — down.
func TestSharedZeroResultExport(t *testing.T) {
	geo := workloads.SharedShape(workloads.Test)
	mb := gen.NewModule()
	mb.Memory(geo.MinPages, geo.MaxPages)
	work := mb.Func("work")
	work.ParamI32("worker")
	work.ParamI32("rounds")
	work.Body()
	mb.Export("work", work)
	m, err := mb.Module()
	if err != nil {
		t.Fatal(err)
	}
	_, err = RunShared(ThreadsOptions{Strategy: mem.Trap, Class: workloads.Test, Workers: 1, Invokes: 1, Module: m})
	if err == nil || !strings.Contains(err.Error(), "worker 0 invoke 0: lane results") {
		t.Fatalf("zero-result work(): err = %v, want a lane-results error", err)
	}
}

// sharedTracedPair runs the shared scenario under both paging
// strategies into one tracing registry.
func sharedTracedPair(t *testing.T) *obs.Snapshot {
	t.Helper()
	reg := obs.NewRegistrySized(1 << 18)
	reg.EnableTracing(true)
	for _, s := range []mem.Strategy{mem.Mprotect, mem.Uffd} {
		// Bench geometry: the 64-page max keeps the grower supplied
		// with fresh pages (the contention source) for the whole run;
		// the Test shape tops out after 7 grows and goes quiet.
		res, err := RunShared(ThreadsOptions{
			Strategy:  s,
			Class:     workloads.Bench,
			Invokes:   12,
			GrowEvery: 20 * time.Microsecond,
			Obs:       reg,
		})
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if !res.DigestOK {
			t.Fatalf("%v: bad digest", s)
		}
	}
	return reg.Snapshot(true)
}

// TestSharedTraceAttribution is the shared-memory scenario's
// observable claim: with one shared memory growing under live traffic,
// the mprotect strategy's sibling faults remap under the address
// space's mmap lock, while uffd — whose registration spans the whole
// arena up front — resolves every fault without it (see
// assertFaultPathLocking; the workers share one mapping, so the
// mprotect span count is bounded, not exact).
func TestSharedTraceAttribution(t *testing.T) {
	assertFaultPathLocking(t, sharedTracedPair(t), false)
}

// FuzzSharedGrowDiff drives the shared scenario through fuzzed
// geometry (lanes, rounds, traffic, grow cadence, strategy) and holds
// the digest invariant: whatever the interleaving, the parallel
// result equals the native twin.
func FuzzSharedGrowDiff(f *testing.F) {
	f.Add(uint8(2), uint8(1), uint8(2), uint16(30), uint8(3))
	f.Add(uint8(4), uint8(3), uint8(4), uint16(120), uint8(4))
	f.Add(uint8(1), uint8(2), uint8(1), uint16(10), uint8(2))
	strategies := mem.Strategies()
	geo := workloads.SharedShape(workloads.Test)
	f.Fuzz(func(t *testing.T, workers, rounds, invokes uint8, growMicros uint16, strat uint8) {
		o := ThreadsOptions{
			Strategy:  strategies[int(strat)%len(strategies)],
			Class:     workloads.Test,
			Workers:   1 + int(workers)%geo.Workers,
			Rounds:    1 + int(rounds)%4,
			Invokes:   1 + int(invokes)%4,
			GrowEvery: time.Duration(1+growMicros%500) * time.Microsecond,
		}
		res, err := RunShared(o)
		if err != nil {
			t.Fatal(err)
		}
		if !res.DigestOK {
			t.Fatalf("%v workers=%d rounds=%d: digest %#x diverged from native",
				o.Strategy, o.Workers, o.Rounds, res.Digest)
		}
	})
}
