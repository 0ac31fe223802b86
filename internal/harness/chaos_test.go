package harness_test

import (
	"reflect"
	"strings"
	"testing"

	"leapsandbounds/internal/faultinject"
	"leapsandbounds/internal/harness"
	"leapsandbounds/internal/isa"
	"leapsandbounds/internal/mem"
	"leapsandbounds/internal/obs"
	"leapsandbounds/internal/workloads"
)

// chaosOutcome is the deterministic portion of one chaos pass:
// per-run checksums and failure causes, plus every injection/recovery
// counter from the registry (timing counters are excluded — they are
// legitimately nondeterministic).
type chaosOutcome struct {
	Checksums []uint64
	Failed    []map[string]int
	Counters  map[string]int64
}

func runChaosSweep(t *testing.T, seed int64) chaosOutcome {
	t.Helper()
	wl := spec(t, "gemm")
	plan := faultinject.ChaosPlan(seed)
	reg := obs.NewRegistry()
	var out chaosOutcome
	// One run at a time, single-threaded: the replay contract's
	// deterministic regime (see the faultinject package documentation).
	for _, s := range []mem.Strategy{mem.Mprotect, mem.Uffd} {
		res, err := harness.Run(harness.Options{
			Engine:   harness.EngineWAVM,
			Workload: wl,
			Class:    workloads.Test,
			Strategy: s,
			Profile:  isa.X86_64(),
			Threads:  1,
			Warmup:   2,
			Measure:  4,
			Fault:    plan,
			Obs:      reg,
		})
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		out.Checksums = append(out.Checksums, res.Checksum)
		out.Failed = append(out.Failed, res.FailureCauses)
	}
	out.Counters = faultinject.ReplayCounters(reg.Snapshot(false).Counters)
	return out
}

// TestChaosReplayDeterminism is the tentpole's acceptance test: two
// sweeps under the same fault plan produce identical per-run
// checksums, failure causes, and injection/recovery counters.
func TestChaosReplayDeterminism(t *testing.T) {
	a := runChaosSweep(t, 20260806)
	b := runChaosSweep(t, 20260806)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("chaos sweeps diverged:\n  first: %+v\n second: %+v", a, b)
	}
	injected := int64(0)
	for name, v := range a.Counters {
		if strings.Contains(name, "faultinject/injections") {
			injected += v
		}
	}
	if injected == 0 {
		t.Error("no injections fired; the plan exercised nothing")
	}
}

// TestChaosChecksumInvariance: transient faults never change what the
// workload computes — the chaos checksum equals the fault-free one.
func TestChaosChecksumInvariance(t *testing.T) {
	wl := spec(t, "gemm")
	base, err := harness.Run(harness.Options{
		Engine:   harness.EngineWAVM,
		Workload: wl,
		Class:    workloads.Test,
		Strategy: mem.Uffd,
		Profile:  isa.X86_64(),
		Warmup:   1,
		Measure:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := runChaosSweep(t, 7)
	for i, sum := range out.Checksums {
		if sum != base.Checksum {
			t.Errorf("run %d: chaos checksum %#x differs from fault-free %#x",
				i, sum, base.Checksum)
		}
	}
}

// TestChaosDifferentSeedsDiverge: a different seed produces a
// different injection history (counters, not results).
func TestChaosDifferentSeedsDiverge(t *testing.T) {
	a := runChaosSweep(t, 1)
	b := runChaosSweep(t, 2)
	if reflect.DeepEqual(a.Counters, b.Counters) {
		t.Error("seeds 1 and 2 produced identical injection counters")
	}
	// Results still agree: the invariant holds for every seed.
	if !reflect.DeepEqual(a.Checksums, b.Checksums) {
		t.Errorf("checksums changed with the seed: %v vs %v", a.Checksums, b.Checksums)
	}
}
