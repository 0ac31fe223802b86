package prof_test

// End-to-end profiler tests through the harness: a smoke run
// asserting a non-empty, pprof-parseable profile, and the pinned
// attribution claim — the trap strategy's samples concentrate in
// software bounds-check work where mprotect's never do (the guard-
// page strategy executes no per-access check for samples to land on).

import (
	"bytes"
	"testing"

	"leapsandbounds/internal/harness"
	"leapsandbounds/internal/isa"
	"leapsandbounds/internal/mem"
	"leapsandbounds/internal/prof"
	"leapsandbounds/internal/workloads"
)

// profiledRun executes one gemm configuration under p. Sampling is
// statistical, so callers retry until enough samples accumulate.
func profiledRun(t *testing.T, p *prof.Profiler, strategy mem.Strategy, cls workloads.Class) {
	t.Helper()
	wl, err := workloads.ByName("gemm")
	if err != nil {
		t.Fatal(err)
	}
	res, err := harness.Run(harness.Options{
		Engine:   harness.EngineWAVM,
		Workload: wl,
		Class:    cls,
		Strategy: strategy,
		Profile:  isa.X86_64(),
		Threads:  1,
		Warmup:   1,
		Measure:  6,
		// Keep every software check in place so checked accesses are
		// visible to the sampler (elision would legitimately remove
		// most of gemm's inner-loop checks).
		NoElide: true,
		Prof:    p,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The sampled run loop is a loop of its own; it must compute what
	// the plain one does.
	if _, native := wl.Build(cls); res.Checksum != native() {
		t.Fatalf("sampled %v run: checksum %#x, native twin %#x", strategy, res.Checksum, native())
	}
}

func TestProfSmoke(t *testing.T) {
	p := prof.New(4001)
	p.Start()
	defer p.Stop()

	var snap prof.Profile
	for attempt := 0; attempt < 10; attempt++ {
		profiledRun(t, p, mem.Trap, workloads.Test)
		if snap = p.Snapshot(); snap.Samples > 0 {
			break
		}
	}
	if snap.Samples == 0 {
		t.Fatal("no samples after 10 runs")
	}
	if len(snap.Rows) == 0 {
		t.Fatal("samples but no rows")
	}
	for _, r := range snap.Rows {
		if r.Engine != "wavm" || r.Strategy != "trap" {
			t.Errorf("row attributed to %s/%s, want wavm/trap", r.Engine, r.Strategy)
		}
	}

	var folded bytes.Buffer
	if err := snap.WriteFolded(&folded); err != nil {
		t.Fatal(err)
	}
	if folded.Len() == 0 {
		t.Error("empty folded output for non-empty profile")
	}

	var pb bytes.Buffer
	if err := snap.WritePprof(&pb); err != nil {
		t.Fatal(err)
	}
	sum, err := prof.ParsePprof(bytes.NewReader(pb.Bytes()))
	if err != nil {
		t.Fatalf("pprof output does not parse: %v", err)
	}
	if sum.Samples != len(snap.Rows) {
		t.Errorf("pprof has %d samples, profile has %d rows", sum.Samples, len(snap.Rows))
	}
}

func TestTrapChecksDominateOverMprotect(t *testing.T) {
	if testing.Short() {
		t.Skip("bench-size paired runs")
	}
	p := prof.New(4001)
	p.Start()
	defer p.Stop()

	// Interleave the arms until both strategies have a statistically
	// meaningful sample count; one profiler keys rows by strategy so
	// both arms accumulate side by side.
	const wantSamples = 40
	var snap prof.Profile
	for attempt := 0; attempt < 12; attempt++ {
		profiledRun(t, p, mem.Trap, workloads.Bench)
		profiledRun(t, p, mem.Mprotect, workloads.Bench)
		snap = p.Snapshot()
		if snap.StrategySamples("trap") >= wantSamples &&
			snap.StrategySamples("mprotect") >= wantSamples {
			break
		}
	}
	trapN, mprotN := snap.StrategySamples("trap"), snap.StrategySamples("mprotect")
	if trapN < wantSamples || mprotN < wantSamples {
		t.Fatalf("too few samples: trap %d, mprotect %d (want >= %d each)", trapN, mprotN, wantSamples)
	}

	trapShare := snap.CheckShare("trap")
	mprotShare := snap.CheckShare("mprotect")
	// The pinned claim: software checks are where trap time goes, and
	// mprotect has no software checks at all — its cost lives in the
	// fault path, which the guest-PC sampler attributes to payload
	// classes (and the vmm fault spans, not this profile).
	if mprotShare != 0 {
		t.Errorf("mprotect check share %.3f, want exactly 0 (no software checks exist)", mprotShare)
	}
	if trapShare <= mprotShare {
		t.Errorf("trap check share %.3f not above mprotect's %.3f", trapShare, mprotShare)
	}
	if trapShare < 0.05 {
		t.Errorf("trap check share %.3f, want >= 0.05 of samples on checked accesses", trapShare)
	}
}
