package main

import (
	"testing"

	leaps "leapsandbounds"
)

// TestBurstsCompileOnce is the serving scenario's cache guarantee:
// after the first burst warms the compile cache, scale-up events
// (fresh engine + Compile per burst) perform zero additional
// compiles — every later Compile is a cache hit on the
// content-addressed artifact.
func TestBurstsCompileOnce(t *testing.T) {
	module := buildHandler()
	cache := leaps.CompileCache()

	// Warm-up burst: the one compile the function ever needs.
	engine, closeEngine, err := leaps.NewEngine(leaps.EngineWasmtime)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := engine.Compile(module); err != nil {
		closeEngine()
		t.Fatal(err)
	}
	closeEngine()

	before := cache.Stats()
	const coldStarts = 5
	for b := 0; b < coldStarts; b++ {
		engine, closeEngine, err := leaps.NewEngine(leaps.EngineWasmtime)
		if err != nil {
			t.Fatal(err)
		}
		compiled, err := engine.Compile(module)
		if err != nil {
			closeEngine()
			t.Fatal(err)
		}
		proc := leaps.NewProcess(leaps.ProfileX86())
		if _, err := serveBurst(compiled, proc.Config(leaps.Uffd), 4, nil); err != nil {
			t.Fatal(err)
		}
		proc.Close()
		closeEngine()
	}
	after := cache.Stats()

	if got := after.Compiles - before.Compiles; got != 0 {
		t.Errorf("compiles after warm-up = %d, want 0", got)
	}
	if got := after.Hits - before.Hits; got < coldStarts {
		t.Errorf("cache hits after warm-up = %d, want >= %d", got, coldStarts)
	}
	if saved := after.CompileNsSaved - before.CompileNsSaved; saved <= 0 {
		t.Errorf("compile ns saved = %d, want > 0", saved)
	}
}

// TestBurstP99InstantiateLatency pins the burst's tail-latency
// reporting: percentiles come from the obs histogram (not a mean),
// both arms record every request, and the fork arm's p99
// time-to-ready beats the per-request isolate arm's — the whole
// point of serving from a template.
func TestBurstP99InstantiateLatency(t *testing.T) {
	module := buildHandler()
	engine, closeEngine, err := leaps.NewEngine(leaps.EngineWasmtime)
	if err != nil {
		t.Fatal(err)
	}
	defer closeEngine()
	compiled, err := engine.Compile(module)
	if err != nil {
		t.Fatal(err)
	}

	metrics := leaps.NewMetrics()
	strategy := leaps.Mprotect
	proc := leaps.NewProcess(leaps.ProfileX86())
	defer proc.Close()
	cfg := proc.Config(strategy)

	isoHist := metrics.Scope(histScope(strategy, "isolate")).Histogram("instantiate_ns")
	if _, err := serveBurst(compiled, cfg, 4, isoHist); err != nil {
		t.Fatal(err)
	}
	forkHist := metrics.Scope(histScope(strategy, "fork")).Histogram("instantiate_ns")
	if _, err := serveForkBurst(compiled, cfg, 4, forkHist); err != nil {
		t.Fatal(err)
	}

	snap := metrics.Snapshot(false)
	var arms [2]leaps.HistogramSnapshot
	for i, arm := range []string{"isolate", "fork"} {
		h, ok := snap.Histograms[histScope(strategy, arm)+"/instantiate_ns"]
		if !ok {
			t.Fatalf("%s arm recorded no instantiate histogram", arm)
		}
		if h.Count != requestsPerBurst {
			t.Errorf("%s arm recorded %d samples, want %d", arm, h.Count, requestsPerBurst)
		}
		if p50, p99 := h.Quantile(0.50), h.Quantile(0.99); p50 <= 0 || p99 < p50 {
			t.Errorf("%s arm: implausible percentiles p50=%d p99=%d", arm, p50, p99)
		}
		arms[i] = h
	}
	isoP99, forkP99 := arms[0].Quantile(0.99), arms[1].Quantile(0.99)
	if forkP99 >= isoP99 {
		t.Errorf("fork p99 %d >= isolate p99 %d: template serving lost its latency win", forkP99, isoP99)
	}
}
