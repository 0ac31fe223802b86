package obs

import (
	"fmt"
	"sync"
	"testing"
)

// drainSpans drains the registry and reconstructs begin/end pairs
// keyed by span ID.
func drainSpans(r *Registry) (begins, ends map[int64]EventRecord) {
	begins, ends = map[int64]EventRecord{}, map[int64]EventRecord{}
	for _, ev := range r.Snapshot(true).Events {
		switch ev.Kind {
		case "span_begin":
			begins[SpanEventID(ev.A)] = ev
		case "span_end":
			ends[SpanEventID(ev.A)] = ev
		}
	}
	return begins, ends
}

func TestSpanBasics(t *testing.T) {
	r := NewRegistry()
	sc := r.Scope("test")

	// Disabled: StartSpan must return the inert span and record
	// nothing.
	sp := sc.StartSpan(SpanRun, SpanRef{})
	if sp.Ref().Valid() {
		t.Fatal("span recorded while tracing disabled")
	}
	sp.End()
	if evs := r.Snapshot(true).Events; len(evs) != 0 {
		t.Fatalf("disabled tracing produced %d events", len(evs))
	}

	r.EnableTracing(true)
	if !r.TracingEnabled() {
		t.Fatal("TracingEnabled false after enable")
	}
	root := sc.StartSpan(SpanRun, SpanRef{})
	child := sc.StartSpan(SpanIter, root.Ref())
	child.End()
	root.End()

	begins, ends := drainSpans(r)
	if len(begins) != 2 || len(ends) != 2 {
		t.Fatalf("got %d begins, %d ends, want 2 and 2", len(begins), len(ends))
	}
	childID, rootID := SpanEventID(child.Ref().Word), SpanEventID(root.Ref().Word)
	cb, ok := begins[childID]
	if !ok {
		t.Fatal("child begin missing")
	}
	if cb.B != rootID {
		t.Fatalf("child parent = %d, want %d", cb.B, rootID)
	}
	if SpanEventKind(cb.A) != SpanIter {
		t.Fatalf("child kind = %v, want iter", SpanEventKind(cb.A))
	}
	rb := begins[rootID]
	if rb.B != 0 {
		t.Fatalf("root parent = %d, want 0", rb.B)
	}
	if ce, ok := ends[childID]; !ok || ce.TimeNs < cb.TimeNs {
		t.Fatalf("child end missing or precedes begin (%v, %v)", ok, ce.TimeNs-cb.TimeNs)
	}
}

func TestEndedSpanBackdates(t *testing.T) {
	r := NewRegistry()
	r.EnableTracing(true)
	sc := r.Scope("test")
	const dur = int64(12345)
	sc.EndedSpan(SpanVMALockWait, SpanRef{Word: 99<<8 | int64(SpanKernelMprotect)}, dur)
	begins, ends := drainSpans(r)
	if len(begins) != 1 || len(ends) != 1 {
		t.Fatalf("got %d begins, %d ends", len(begins), len(ends))
	}
	for id, b := range begins {
		e := ends[id]
		if got := e.TimeNs - b.TimeNs; got != dur {
			t.Fatalf("span duration %d, want %d", got, dur)
		}
		if b.B != 99 {
			t.Fatalf("parent %d, want 99", b.B)
		}
		if SpanEventKind(b.A) != SpanVMALockWait {
			t.Fatalf("kind %v, want vma_lock_wait", SpanEventKind(b.A))
		}
	}
	// Negative durations clamp rather than producing end < begin.
	sc.EndedSpan(SpanVMALockWait, SpanRef{}, -5)
	begins, ends = drainSpans(r)
	for id, b := range begins {
		if ends[id].TimeNs < b.TimeNs {
			t.Fatal("negative duration produced end before begin")
		}
	}
}

func TestSpanNilAndRinglessSafety(t *testing.T) {
	var nilScope *Scope
	sp := nilScope.StartSpan(SpanRun, SpanRef{})
	sp.End()
	nilScope.EndedSpan(SpanFault, SpanRef{}, 10)

	ringless := NewRegistrySized(0)
	ringless.EnableTracing(true) // tracing on but no ring: still inert
	sc := ringless.Scope("x")
	sp = sc.StartSpan(SpanRun, SpanRef{})
	if sp.Ref().Valid() {
		t.Fatal("ringless registry produced a live span")
	}
	sp.End()
	sc.EndedSpan(SpanFault, SpanRef{}, 10)

	var nilReg *Registry
	nilReg.EnableTracing(true)
	if nilReg.TracingEnabled() {
		t.Fatal("nil registry reports tracing enabled")
	}
}

// TestSpanKindNames pins the name table (trace consumers and the
// attribution report switch on these strings).
func TestSpanKindNames(t *testing.T) {
	want := map[SpanKind]string{
		SpanRun: "run", SpanIter: "iter", SpanInstantiate: "instantiate",
		SpanInvoke: "invoke", SpanFault: "fault",
		SpanKernelMmap: "kernel.mmap", SpanKernelMunmap: "kernel.munmap",
		SpanKernelMprotect: "kernel.mprotect", SpanVMALockWait: "vma_lock_wait",
		SpanUffdCopy: "uffd.copy", SpanUffdDecommit: "uffd.decommit",
		SpanPoolGet: "pool.get", SpanPoolPut: "pool.put",
		SpanTierUp: "tier_up", SpanGCPause: "gc_pause",
		SpanSafepointWait: "safepoint_wait",
		SpanHazardReclaim: "hazard.reclaim", SpanPoolDrain: "pool.drain",
	}
	for k, name := range want {
		if k.String() != name {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), name)
		}
	}
	if SpanKind(200).String() != "span(?)" {
		t.Errorf("out-of-range kind name = %q", SpanKind(200).String())
	}
}

// TestSpanConcurrent hammers span emission from 8 goroutines (run
// under -race in CI): IDs must stay unique and every drained pair
// consistent, with drops (not corruption) under overflow.
func TestSpanConcurrent(t *testing.T) {
	r := NewRegistrySized(1 << 16)
	r.EnableTracing(true)
	const goroutines = 8
	const perG = 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sc := r.Scope(fmt.Sprintf("worker%d", g))
			for i := 0; i < perG; i++ {
				root := sc.StartSpan(SpanIter, SpanRef{})
				child := sc.StartSpan(SpanInvoke, root.Ref())
				sc.EndedSpan(SpanVMALockWait, child.Ref(), int64(i))
				child.End()
				root.End()
			}
		}(g)
	}
	wg.Wait()

	begins, ends := drainSpans(r)
	// 3 spans per iteration; ring is big enough to hold all 6 events.
	wantSpans := goroutines * perG * 3
	if len(begins) != wantSpans || len(ends) != wantSpans {
		t.Fatalf("got %d begins, %d ends, want %d", len(begins), len(ends), wantSpans)
	}
	for id, b := range begins {
		e, ok := ends[id]
		if !ok {
			t.Fatalf("span %d has no end", id)
		}
		if SpanEventKind(e.A) != SpanEventKind(b.A) {
			t.Fatalf("span %d kind mismatch: begin %v end %v", id, SpanEventKind(b.A), SpanEventKind(e.A))
		}
		if e.TimeNs < b.TimeNs {
			t.Fatalf("span %d ends before it begins", id)
		}
	}
}

// BenchmarkSpanDisabled measures the documented zero-cost path: a
// StartSpan/End pair with tracing off must be a couple of loads.
func BenchmarkSpanDisabled(b *testing.B) {
	r := NewRegistry()
	sc := r.Scope("bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := sc.StartSpan(SpanInvoke, SpanRef{})
		sp.End()
	}
}

// BenchmarkSpanEnabled measures the recording path (two ring pushes
// and the span-time counter add).
func BenchmarkSpanEnabled(b *testing.B) {
	r := NewRegistry()
	r.EnableTracing(true)
	sc := r.Scope("bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := sc.StartSpan(SpanInvoke, SpanRef{})
		sp.End()
	}
}
