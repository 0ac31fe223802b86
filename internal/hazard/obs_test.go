package hazard

import (
	"sync/atomic"
	"testing"

	"leapsandbounds/internal/obs"
)

// TestAttachObsCountsAndSpans covers the domain's telemetry: retire
// and reclaim counters, the pending gauge tracking deferred
// reclamation, and a hazard.reclaim span per batch when tracing is
// enabled.
func TestAttachObsCountsAndSpans(t *testing.T) {
	reg := obs.NewRegistry()
	reg.EnableTracing(true)
	var d Domain
	d.AttachObs(reg.Scope("pool/hazard"))

	var ptr atomic.Pointer[arena]
	a, b := &arena{id: 1}, &arena{id: 2}

	// a: protected at retire time, so reclamation defers.
	ptr.Store(a)
	s := d.Acquire()
	if Protect(s, &ptr) != a {
		t.Fatal("Protect returned wrong pointer")
	}
	ptr.Store(nil)
	Retire(&d, a, func() {})
	// b: unprotected, reclaims inside Retire.
	Retire(&d, b, func() {})

	// Attaching again registers the same objects: nothing counts twice.
	d.AttachObs(reg.Scope("pool/hazard"))
	snap := reg.Snapshot(false)
	if got := snap.Counters["pool/hazard/retired"]; got != 2 || got != d.nRetired.Load() {
		t.Errorf("retired = %d, want 2", got)
	}
	if got := snap.Counters["pool/hazard/reclaimed"]; got != 1 {
		t.Errorf("reclaimed = %d, want 1", got)
	}
	if got := snap.Gauges["pool/hazard/pending"]; got != 1 {
		t.Errorf("pending = %d, want 1 (a still protected)", got)
	}

	s.Clear()
	if n := d.Flush(); n != 1 {
		t.Fatalf("flush reclaimed %d, want 1", n)
	}
	s.Release()
	snap = reg.Snapshot(true)
	if got := snap.Counters["pool/hazard/reclaimed"]; got != 2 {
		t.Errorf("reclaimed after flush = %d, want 2", got)
	}
	if got := snap.Gauges["pool/hazard/pending"]; got != 0 {
		t.Errorf("pending after flush = %d, want 0", got)
	}
	spans := 0
	for _, ev := range snap.Events {
		if ev.Kind == obs.SpanBegin && obs.SpanEventKind(ev.A) == obs.SpanHazardReclaim {
			spans++
		}
	}
	// One batch inside the second Retire, one inside Flush.
	if spans != 2 {
		t.Errorf("hazard.reclaim spans = %d, want 2", spans)
	}
}

// TestAttachObsDetach pins what a nil attach does: the spans stop,
// the domain keeps working, and the counters — the domain's own, still
// registered where they were — keep counting.
func TestAttachObsDetach(t *testing.T) {
	reg := obs.NewRegistry()
	reg.EnableTracing(true)
	var d Domain
	d.AttachObs(reg.Scope("h"))
	d.AttachObs(nil)
	Retire(&d, &arena{id: 3}, func() {})
	snap := reg.Snapshot(true)
	if got := snap.Counters["h/retired"]; got != 1 {
		t.Errorf("retired = %d, want 1", got)
	}
	if len(snap.Events) != 0 {
		t.Errorf("detached domain still traced: %d events", len(snap.Events))
	}
}
