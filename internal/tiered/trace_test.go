package tiered

import (
	"testing"
	"time"

	"leapsandbounds/internal/core"
	"leapsandbounds/internal/isa"
	"leapsandbounds/internal/modcache"
	"leapsandbounds/internal/obs"
	"leapsandbounds/internal/wasm"
	g "leapsandbounds/internal/wasmgen"
)

// traceModule is kernelModule with a distinct constant: the compile
// cache is content-addressed and shared process-wide, so reusing the
// other tests' module would warm-start and skip the tier-up span
// this test exists to observe.
func traceModule(t *testing.T) *wasm.Module {
	t.Helper()
	mb := g.NewModule()
	mb.Memory(1, 4)
	lay := g.NewLayout(0)
	arr := lay.I32(1024)
	f := mb.Func("k", wasm.I32)
	n := f.ParamI32("n")
	i := f.LocalI32("i")
	acc := f.LocalI32("acc")
	f.Body(
		g.For(i, g.I32(0), g.Get(n),
			arr.Store(g.Get(i), g.Mul(g.Get(i), g.I32(7919))),
		),
		g.For(i, g.I32(0), g.Get(n),
			g.Set(acc, g.Add(g.Get(acc), arr.Load(g.Get(i)))),
		),
		g.Return(g.Get(acc)),
	)
	mb.Export("k", f)
	m, err := mb.Module()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// drainCompleteSpans drains the registry's ring into counts of
// complete (begin+end) spans by kind, accumulating into got.
func drainCompleteSpans(reg *obs.Registry, got map[obs.SpanKind]int) {
	begins := map[int64]obs.SpanKind{}
	ends := map[int64]bool{}
	for _, ev := range reg.Snapshot(true).Events {
		switch ev.Kind {
		case obs.SpanBegin:
			begins[obs.SpanEventID(ev.A)] = obs.SpanEventKind(ev.A)
		case obs.SpanEnd:
			ends[obs.SpanEventID(ev.A)] = true
		}
	}
	for id, kind := range begins {
		if ends[id] {
			got[kind]++
		}
	}
}

// TestRuntimeServiceSpans covers the tiered engine's contribution to
// the causal trace: the background optimizing compile records a
// tier_up span, and a stop-the-world collection records a gc_pause
// span alongside the EvGCPause event it already emitted.
func TestRuntimeServiceSpans(t *testing.T) {
	reg := obs.NewRegistrySized(1 << 16)
	reg.EnableTracing(true)
	e := New()
	e.SetCache(modcache.New(0)) // a live tier-up, whatever the shared cache holds from an earlier run
	defer e.Close()
	e.AttachObs(reg.Scope("v8"))

	cm, err := e.Compile(traceModule(t))
	if err != nil {
		t.Fatal(err)
	}
	if !WaitReady(cm, 5*time.Second) {
		t.Fatal("top tier never became ready")
	}
	inst, err := cm.Instantiate(core.Config{Profile: isa.X86_64(), Obs: reg.Scope("engine")}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()

	// Keep an invocation stream alive until the GC controller has
	// paused the world at least once (it only collects while isolates
	// are active), then give the loop a beat to emit the span that
	// follows the counter tick.
	deadline := time.Now().Add(2 * time.Second)
	for e.stats().GCPauses == 0 && time.Now().Before(deadline) {
		if _, err := inst.Invoke("k", 200); err != nil {
			t.Fatal(err)
		}
	}
	pauses := e.stats().GCPauses
	time.Sleep(10 * time.Millisecond)

	got := map[obs.SpanKind]int{}
	drainCompleteSpans(reg, got)
	if got[obs.SpanTierUp] != 1 {
		t.Errorf("tier_up spans = %d, want 1", got[obs.SpanTierUp])
	}
	// Keyed on the engine's own counter, like the harness attribution
	// test: if the engine says it paused, the trace must show it.
	if pauses > 0 && got[obs.SpanGCPause] == 0 {
		t.Errorf("engine counted %d GC pauses but no gc_pause span was recorded", pauses)
	}
	if pauses == 0 {
		t.Skip("no GC pause within deadline on this host")
	}
}

// TestSpansSilentWhenUntraced pins the off-by-default contract for
// the runtime-service spans: without EnableTracing the same workload
// records no span events at all (the EvGCPause/EvTierUp counters and
// events still flow).
func TestSpansSilentWhenUntraced(t *testing.T) {
	reg := obs.NewRegistry()
	e := New()
	defer e.Close()
	e.AttachObs(reg.Scope("v8"))
	cm, err := e.Compile(kernelModule(t))
	if err != nil {
		t.Fatal(err)
	}
	if !WaitReady(cm, 5*time.Second) {
		t.Fatal("top tier never became ready")
	}
	inst, err := cm.Instantiate(core.Config{Profile: isa.X86_64(), Obs: reg.Scope("engine")}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	if _, err := inst.Invoke("k", 200); err != nil {
		t.Fatal(err)
	}
	for _, ev := range reg.Snapshot(true).Events {
		if ev.Kind == obs.SpanBegin || ev.Kind == obs.SpanEnd {
			t.Fatalf("span event %v recorded with tracing disabled", ev)
		}
	}
}
