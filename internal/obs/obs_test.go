package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	sc := r.Scope("vmm")
	c := sc.Counter("mmap_calls")
	c.Add(3)
	c.Inc()
	if got := c.Load(); got != 4 {
		t.Errorf("counter = %d, want 4", got)
	}
	// Interning: same scope+name yields the same counter.
	if sc.Counter("mmap_calls") != c {
		t.Error("counter not interned")
	}
	if r.Scope("vmm") != sc {
		t.Error("scope not interned")
	}
	g := sc.Gauge("resident")
	g.Set(100)
	g.Add(-25)
	if got := g.Load(); got != 75 {
		t.Errorf("gauge = %d, want 75", got)
	}
	snap := r.Snapshot(false)
	if snap.Counters["vmm/mmap_calls"] != 4 || snap.Gauges["vmm/resident"] != 75 {
		t.Errorf("snapshot: %+v", snap)
	}
}

// TestRegisterOwnedMetrics: a counter or gauge its owner holds by
// value is published, not mirrored — the snapshot reads the owner's
// word, whatever it counted before the registry existed, and
// registering again changes nothing.
func TestRegisterOwnedMetrics(t *testing.T) {
	var owner struct {
		hits    Counter
		entries Gauge
	}
	owner.hits.Add(3) // before any registry: a late registry sees totals
	owner.entries.Set(2)
	r := NewRegistry()
	sc := r.Scope("cache")
	for i := 0; i < 2; i++ {
		sc.RegisterCounter("hits", &owner.hits)
		sc.RegisterGauge("entries", &owner.entries)
	}
	owner.hits.Inc()
	snap := r.Snapshot(false)
	if snap.Counters["cache/hits"] != 4 || snap.Gauges["cache/entries"] != 2 {
		t.Errorf("snapshot %v %v, want hits 4 and entries 2", snap.Counters, snap.Gauges)
	}
	if sc.Counter("hits") != &owner.hits || sc.Gauge("entries") != &owner.entries {
		t.Error("the scope's named metric is not the owner's object")
	}
	var none *Scope
	none.RegisterCounter("hits", &owner.hits) // no-ops, not panics
	none.RegisterGauge("entries", &owner.entries)
}

func TestNilSafety(t *testing.T) {
	var sc *Scope
	sc.Counter("x").Add(1)
	sc.Gauge("y").Set(2)
	sc.Histogram("z").Observe(3)
	sc.EndedSpan(SpanFault, SpanRef{}, 1)
	if sc.Child("c") != nil {
		t.Error("nil scope child must be nil")
	}
	if sc.Counter("x").Load() != 0 {
		t.Error("nil counter must read 0")
	}
	var r *Registry
	if r.Scope("s") != nil {
		t.Error("nil registry scope must be nil")
	}
	if snap := r.Snapshot(true); snap == nil || len(snap.Counters) != 0 {
		t.Error("nil registry snapshot must be empty, not nil")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Scope("s").Histogram("lat")
	for _, v := range []int64{1, 64, 65, 128, 129, 1 << 40, -5} {
		h.Observe(v)
	}
	if got := h.count.Load(); got != 7 {
		t.Errorf("count = %d, want 7", got)
	}
	snap := h.snapshot()
	var total int64
	for _, b := range snap.Buckets {
		total += b.N
	}
	if total != 7 {
		t.Errorf("bucket total = %d, want 7", total)
	}
	// 1, 64 and the clamped -5 land in bucket 0 (le=64); 65 and 128
	// in bucket 1 (le=128); 129 in bucket 2; 1<<40 overflows.
	want := map[int64]int64{64: 3, 128: 2, 256: 1, -1: 1}
	for _, b := range snap.Buckets {
		if want[b.Le] != b.N {
			t.Errorf("bucket le=%d: n=%d, want %d", b.Le, b.N, want[b.Le])
		}
	}
}

func TestRingFIFOAndOverflow(t *testing.T) {
	r := newRing(4)
	for i := 0; i < 6; i++ {
		r.push(Event{A: int64(i)})
	}
	if got := r.dropped.Load(); got != 2 {
		t.Errorf("dropped = %d, want 2", got)
	}
	for i := 0; i < 4; i++ {
		ev, ok := r.pop()
		if !ok || ev.A != int64(i) {
			t.Fatalf("pop %d: %v %v", i, ev, ok)
		}
	}
	if _, ok := r.pop(); ok {
		t.Error("pop from empty ring succeeded")
	}
	// Ring is reusable after a full drain.
	if !r.push(Event{A: 99}) {
		t.Error("push after drain failed")
	}
	if ev, ok := r.pop(); !ok || ev.A != 99 {
		t.Errorf("pop after drain: %v %v", ev, ok)
	}
}

// TestConcurrentRegistry hammers counters, histograms and the trace
// ring from 8 goroutines (run under -race by scripts/verify.sh):
// counter and histogram totals — the span-time counters among them —
// must be exact; the trace ring is bounded-loss — delivered plus
// dropped equals the span events made.
func TestConcurrentRegistry(t *testing.T) {
	const (
		goroutines = 8
		perG       = 10000
	)
	r := NewRegistrySized(1 << 10) // small ring: force drops
	r.EnableTracing(true)
	shared := r.Scope("shared")
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Per-goroutine scope creation races with other
			// registrations on purpose.
			own := r.Scope("worker").Child("own")
			c := shared.Counter("hits")
			h := shared.Histogram("lat")
			for i := 0; i < perG; i++ {
				c.Inc()
				own.Counter("local").Add(2)
				h.Observe(int64(i % 4096))
				shared.EndedSpan(SpanFault, SpanRef{}, int64(i))
			}
		}(g)
	}
	wg.Wait()

	snap := r.Snapshot(true)
	if got := snap.Counters["shared/hits"]; got != goroutines*perG {
		t.Errorf("shared counter = %d, want %d", got, goroutines*perG)
	}
	if got := snap.Counters["worker/own/local"]; got != 2*goroutines*perG {
		t.Errorf("per-scope counter = %d, want %d", got, 2*goroutines*perG)
	}
	if got := snap.Histograms["shared/lat"].Count; got != goroutines*perG {
		t.Errorf("histogram count = %d, want %d", got, goroutines*perG)
	}
	delivered := int64(len(snap.Events))
	if delivered+snap.DroppedEvents != 2*goroutines*perG {
		t.Errorf("events delivered %d + dropped %d != made %d",
			delivered, snap.DroppedEvents, 2*goroutines*perG)
	}
	if got, want := snap.Counters["shared/span_ns/fault"], int64(goroutines*perG*(perG-1)/2); got != want {
		t.Errorf("fault span ns = %d, want %d whatever the ring dropped", got, want)
	}
	if delivered == 0 {
		t.Error("no events delivered at all")
	}
	if snap.DroppedEvents == 0 {
		t.Error("expected drops with a small ring (bounded-loss path untested)")
	}
}

func TestSnapshotDrainPartitionsTrace(t *testing.T) {
	r := NewRegistry()
	r.EnableTracing(true)
	sc := r.Scope("s")
	sc.EndedSpan(SpanTierUp, SpanRef{}, 1)
	first := r.Snapshot(true)
	if len(first.Events) != 2 {
		t.Fatalf("first drain: %d events, want 2", len(first.Events))
	}
	open := sc.StartSpan(SpanGCPause, SpanRef{})
	second := r.Snapshot(true)
	if len(second.Events) != 1 || second.Events[0].Kind != "span_begin" || second.Events[0].A != open.Ref().Word {
		t.Fatalf("second drain: %+v", second.Events)
	}
}

func TestSinks(t *testing.T) {
	r := NewRegistry()
	r.EnableTracing(true)
	sc := r.Scope("run").Child("vmm")
	sc.Counter("lock_contended").Add(5)
	sc.Histogram("lock_wait_ns").Observe(1500)
	sc.Gauge("threads").Set(4)
	sc.EndedSpan(SpanVMALockWait, SpanRef{}, 1500)

	var buf bytes.Buffer
	if err := (JSONSink{W: &buf}).Write(r.Snapshot(false)); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("JSON sink output not valid JSON: %v", err)
	}
	counters, _ := doc["counters"].(map[string]any)
	if counters["run/vmm/lock_contended"] != float64(5) {
		t.Errorf("JSON counters: %v", counters)
	}

	buf.Reset()
	if err := (SummarySink{W: &buf}).Write(r.Snapshot(true)); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"run/vmm/lock_contended", "run/vmm/span_ns/vma_lock_wait", "spans: 2 recorded, 0 dropped"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("summary sink output lacks %q:\n%s", want, buf.String())
		}
	}
}

func TestTraceDisabledRegistry(t *testing.T) {
	r := NewRegistrySized(0)
	r.EnableTracing(true)
	sc := r.Scope("s")
	sc.EndedSpan(SpanFault, SpanRef{}, 2) // must be a no-op, not a panic
	sc.Counter("c").Inc()
	snap := r.Snapshot(true)
	if len(snap.Events) != 0 || snap.DroppedEvents != 0 {
		t.Errorf("trace-disabled registry recorded events: %+v", snap)
	}
	if snap.Counters["s/c"] != 1 {
		t.Error("counters must still work with tracing disabled")
	}
}

func BenchmarkCounterAdd(b *testing.B) {
	r := NewRegistry()
	c := r.Scope("bench").Counter("c")
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkHistogramObserve(b *testing.B) {
	r := NewRegistry()
	h := r.Scope("bench").Histogram("h")
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			h.Observe(1234)
		}
	})
}
