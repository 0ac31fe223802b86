package tiered

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"leapsandbounds/internal/compiled"
	"leapsandbounds/internal/core"
	"leapsandbounds/internal/isa"
	"leapsandbounds/internal/modcache"
	"leapsandbounds/internal/obs"
	"leapsandbounds/internal/rir"
	"leapsandbounds/internal/wasm"
	g "leapsandbounds/internal/wasmgen"
	"leapsandbounds/internal/workloads"
)

// rirKernelModule is kernelModule with a distinct multiplier: the
// compile cache is content-addressed and process-wide, so reusing
// another test's module would warm-start and skip the live tier-up
// that test needs to observe — and this file's tests must not warm
// kernelModule for tiered_test.go either (it runs after this file).
func rirKernelModule(t *testing.T, mult int32) *wasm.Module {
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
			arr.Store(g.Get(i), g.Mul(g.Get(i), g.I32(mult))),
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

// TestTierUpToRegisterIRMidExecution pins the register-IR top tier's
// adoption path: a module is compiled and invoked on the baseline
// tier while the background worker recompiles it to register IR; the
// tier-up lands mid-stream, later instances run the lowered code, and
// the checksum never drifts across the transition. The lowering
// counters prove the top tier actually went through the register
// pipeline rather than the old single-pass emit.
func TestTierUpToRegisterIRMidExecution(t *testing.T) {
	e := New()
	e.SetCache(modcache.New(0)) // a live tier-up, whatever the shared cache holds from an earlier run
	defer e.Close()
	before := rir.Stats()

	cm, err := e.Compile(rirKernelModule(t, 104729))
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Profile: isa.X86_64()}
	inst1, err := cm.Instantiate(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer inst1.Close()

	// Invoke continuously while the background recompile runs; the
	// stream must stay stable through the moment the module's top
	// tier pointer flips.
	want, err := inst1.Invoke("k", 500)
	if err != nil {
		t.Fatal(err)
	}
	ready := false
	deadline := time.Now().Add(5 * time.Second)
	for !ready && time.Now().Before(deadline) {
		got, err := inst1.Invoke("k", 500)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != want[0] {
			t.Fatalf("checksum drifted during tier-up: %d vs %d", got[0], want[0])
		}
		ready = WaitReady(cm, time.Millisecond)
	}
	if !ready {
		t.Fatal("top tier never became ready")
	}

	inst2, err := cm.Instantiate(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer inst2.Close()
	if tier := tierOf(inst2); tier != "optimized" {
		t.Fatalf("post-tier-up instance runs on %q", tier)
	}
	got, err := inst2.Invoke("k", 500)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != want[0] {
		t.Errorf("register tier checksum %d, baseline tier %d", got[0], want[0])
	}

	after := rir.Stats()
	if e.stats().TierUps > 0 && after.OpsIn == before.OpsIn {
		t.Error("tier-up compiled without running the register-IR pipeline")
	}
	if after.OpsOut-before.OpsOut >= after.OpsIn-before.OpsIn {
		t.Errorf("tier-up lowering did not shrink ops: in=%d out=%d",
			after.OpsIn-before.OpsIn, after.OpsOut-before.OpsOut)
	}
}

// TestTopTierIsWAVMWithoutElision pins what the top tier compiles to:
// exactly wavm's pipeline with bounds-check elision off — the same ops
// out of every function, and the same artifact bytes, whose flags byte
// names the pipeline — and not wavm's own code, which elides.
func TestTopTierIsWAVMWithoutElision(t *testing.T) {
	e := New()
	defer e.Close()
	noElide := compiled.NewWAVM()
	if err := noElide.SetElision(false); err != nil {
		t.Fatal(err)
	}
	gemm, err := workloads.ByName("gemm")
	if err != nil {
		t.Fatal(err)
	}
	gm, _ := gemm.Build(workloads.Test)
	differs := false
	for _, m := range []*wasm.Module{rirKernelModule(t, 7), gm} {
		top := emitted(t, e.topTier, m)
		if want := emitted(t, noElide, m); top != want {
			t.Errorf("top tier emits\n%s\nwavm with elision off emits\n%s", top, want)
		}
		differs = differs || top != emitted(t, compiled.NewWAVM(), m)
	}
	if !differs {
		t.Error("the top tier emits what wavm emits with elision on: the modules check nothing")
	}
}

// emitted is what e's pipeline makes of m: every op emit receives, one
// String line each, and the module's artifact bytes.
func emitted(t *testing.T, e *compiled.Engine, m *wasm.Module) string {
	t.Helper()
	var b strings.Builder
	for i := range m.Code {
		_, f, err := e.EmittedIR(m, i)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "func %d\n", i)
		for pc := range f.Code {
			fmt.Fprintf(&b, "%d %s\n", pc, f.Code[pc].String(f))
		}
	}
	cm, err := e.CompileModule(m)
	if err != nil {
		t.Fatal(err)
	}
	art, err := e.EncodeArtifact(cm)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "artifact %x\n", art)
	return b.String()
}

// TestRIRTierSpanNesting checks that the runtime-service spans keep
// their shape with the register tier on: gc_pause spans complete as
// roots, safepoint_wait spans nest under the invocation parent they
// were attributed to, and the snapshot renders to a loadable
// Chrome/Perfetto trace.
func TestRIRTierSpanNesting(t *testing.T) {
	reg := obs.NewRegistrySized(1 << 16)
	reg.EnableTracing(true)
	e := New()
	defer e.Close()
	e.AttachObs(reg.Scope("v8"))

	cm, err := e.Compile(rirKernelModule(t, 99991))
	if err != nil {
		t.Fatal(err)
	}
	WaitReady(cm, 5*time.Second)

	// Root span: the parent every safepoint wait must attach to.
	run := reg.Scope("run strategy=trap").StartSpan(obs.SpanRun, obs.SpanRef{})
	inst, err := cm.Instantiate(core.Config{
		Profile: isa.X86_64(),
		Obs:     reg.Scope("engine"),
		Span:    run.Ref(),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for e.stats().GCPauses == 0 && time.Now().Before(deadline) {
		if _, err := inst.Invoke("k", 200); err != nil {
			t.Fatal(err)
		}
	}
	pauses := e.stats().GCPauses
	inst.Close()
	run.End()
	time.Sleep(10 * time.Millisecond)

	snap := reg.Snapshot(true)
	begins := map[int64]obs.SpanKind{}
	parents := map[int64]int64{}
	ends := map[int64]bool{}
	for _, ev := range snap.Events {
		switch ev.Kind {
		case obs.SpanBegin:
			begins[obs.SpanEventID(ev.A)] = obs.SpanEventKind(ev.A)
			parents[obs.SpanEventID(ev.A)] = ev.B
		case obs.SpanEnd:
			ends[obs.SpanEventID(ev.A)] = true
		}
	}
	gcComplete, safepointOK, safepointSeen := 0, 0, 0
	for id, kind := range begins {
		switch kind {
		case obs.SpanGCPause:
			if ends[id] {
				gcComplete++
			}
			if parents[id] != 0 {
				t.Errorf("gc_pause span %d has parent %d, want root", id, parents[id])
			}
		case obs.SpanSafepointWait:
			safepointSeen++
			if ends[id] && parents[id] == obs.SpanEventID(run.Ref().Word) {
				safepointOK++
			}
		}
	}
	if pauses > 0 && gcComplete == 0 {
		t.Errorf("engine counted %d GC pauses but no complete gc_pause span", pauses)
	}
	if safepointSeen > 0 && safepointOK == 0 {
		t.Errorf("%d safepoint_wait spans, none nested under the run span", safepointSeen)
	}
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, snap); err != nil {
		t.Fatalf("trace does not render: %v", err)
	}
	if buf.Len() == 0 {
		t.Error("empty Perfetto trace")
	}
	if pauses == 0 {
		t.Skip("no GC pause within deadline on this host")
	}
}
