package rir

import (
	"reflect"
	"sync"
	"testing"

	"leapsandbounds/internal/obs"
)

// TestRecordLoweringConcurrent hammers the process-wide lowering
// counters from many goroutines while an observer attaches and
// detaches — the shape of concurrent background compiles in the
// tiered engine with a telemetry registry coming and going. Run
// under -race this is the test backing the package's entry in the
// race list; the delta assertions catch lost updates either way.
func TestRecordLoweringConcurrent(t *testing.T) {
	const workers, rounds = 8, 200
	before := Stats()

	reg := obs.NewRegistrySized(1 << 12)
	var wg sync.WaitGroup
	wg.Add(workers + 1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			AttachObs(reg.Scope("rir"))
			AttachObs(nil)
		}
	}()
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				RecordLowering(10, 7, 3, 1)
				rirFusedCmpBr.Add(1)
				rirFusedLdOp.Add(2)
			}
		}()
	}
	wg.Wait()
	AttachObs(nil)

	after := Stats()
	const n = workers * rounds
	if got := after.OpsIn - before.OpsIn; got != 10*n {
		t.Errorf("ops_in delta %d, want %d", got, 10*n)
	}
	if got := after.OpsOut - before.OpsOut; got != 7*n {
		t.Errorf("ops_out delta %d, want %d", got, 7*n)
	}
	if got := after.RegsAllocated - before.RegsAllocated; got != 3*n {
		t.Errorf("regs_allocated delta %d, want %d", got, 3*n)
	}
	if got := after.FusedCmpBr - before.FusedCmpBr; got != n {
		t.Errorf("fused_cmpbr delta %d, want %d", got, n)
	}
	if got := after.FusedLdOp - before.FusedLdOp; got != 2*n {
		t.Errorf("fused_ldop delta %d, want %d", got, 2*n)
	}
	if after.OpsOut-before.OpsOut >= after.OpsIn-before.OpsIn {
		t.Error("lowering stats cannot show ops_out >= ops_in here")
	}
	// Two hundred attaches later the registry holds the package's own
	// counters, once: its snapshot is Stats(), field for field.
	got := reg.Snapshot(false).Counters
	want := map[string]int64{
		"rir/ops_in": after.OpsIn, "rir/ops_out": after.OpsOut, "rir/regs_allocated": after.RegsAllocated,
		"rir/fused_cmpbr": after.FusedCmpBr, "rir/fused_ldop": after.FusedLdOp,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("registry %v\nStats()  %v", got, want)
	}
}

// TestRecordLoweringSpansConcurrent: the compile fan-out calls
// RecordLowering from every worker, and with tracing on each call
// pushes a rir.lower span into the shared ring. Every span must
// arrive, whole (-race covers the ring slots).
func TestRecordLoweringSpansConcurrent(t *testing.T) {
	const workers, rounds = 8, 200
	reg := obs.NewRegistrySized(1 << 12) // 2 events per span, 3200 in all
	reg.EnableTracing(true)
	AttachObs(reg.Scope("rir"))
	defer AttachObs(nil)

	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				RecordLowering(10, 7, 3, 1000)
			}
		}()
	}
	wg.Wait()

	begins, ends := map[int64]bool{}, 0
	for _, ev := range reg.Snapshot(true).Events {
		if obs.SpanEventKind(ev.A) != obs.SpanRIRLower {
			t.Fatalf("unexpected event %+v", ev)
		}
		switch ev.Kind {
		case obs.SpanBegin:
			begins[obs.SpanEventID(ev.A)] = true
		case obs.SpanEnd:
			if !begins[obs.SpanEventID(ev.A)] {
				t.Errorf("span %d ended before it began", obs.SpanEventID(ev.A))
			}
			ends++
		}
	}
	if len(begins) != workers*rounds || ends != workers*rounds {
		t.Errorf("%d distinct spans begun, %d ended, want %d each", len(begins), ends, workers*rounds)
	}
}
