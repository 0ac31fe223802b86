package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

// failWriter errors after allowing n bytes through.
type failWriter struct {
	n       int
	written int
}

var errSink = errors.New("sink: simulated write failure")

func (w *failWriter) Write(p []byte) (int, error) {
	if w.written+len(p) > w.n {
		allowed := w.n - w.written
		if allowed < 0 {
			allowed = 0
		}
		w.written += allowed
		return allowed, errSink
	}
	w.written += len(p)
	return len(p), nil
}

// TestSinkWriteFailures ensures every sink surfaces writer errors
// instead of swallowing them, at various truncation points.
func TestSinkWriteFailures(t *testing.T) {
	reg := NewRegistry()
	reg.EnableTracing(true)
	sc := reg.Scope("s")
	sc.Counter("c").Add(1)
	sc.Gauge("g").Set(2)
	sc.Histogram("h").Observe(100)
	sc.EndedSpan(SpanKernelMmap, SpanRef{}, 2)
	snap := reg.Snapshot(true)

	sinks := map[string]func(*failWriter) Sink{
		"json":    func(w *failWriter) Sink { return JSONSink{W: w} },
		"summary": func(w *failWriter) Sink { return SummarySink{W: w} },
	}
	for name, mk := range sinks {
		for _, allow := range []int{0, 10, 100} {
			sink := mk(&failWriter{n: allow})
			if err := sink.Write(snap); !errors.Is(err, errSink) {
				t.Errorf("%s sink with %d-byte writer: error = %v, want errSink", name, allow, err)
			}
		}
	}
}

// TestFlushEmptyRegistry: a registry with nothing registered must
// snapshot cleanly through every sink, and a nil registry must too.
func TestFlushEmptyRegistry(t *testing.T) {
	for _, reg := range []*Registry{NewRegistry(), nil} {
		var jb, sb bytes.Buffer
		if err := (JSONSink{W: &jb}).Write(reg.Snapshot(true)); err != nil {
			t.Fatalf("JSON flush: %v", err)
		}
		var snap Snapshot
		if err := json.Unmarshal(jb.Bytes(), &snap); err != nil {
			t.Fatalf("empty JSON snapshot invalid: %v", err)
		}
		if len(snap.Counters) != 0 {
			t.Fatalf("empty registry has counters: %v", snap.Counters)
		}
		if err := (SummarySink{W: &sb}).Write(reg.Snapshot(true)); err != nil {
			t.Fatalf("summary flush: %v", err)
		}
		if sb.Len() != 0 {
			t.Fatalf("empty summary wrote %q", sb.String())
		}
	}
}

// TestSummarySinkPercentilesAndDrops checks the new p50/p95/p99
// digest line and that drops are reported even with zero events.
func TestSummarySinkPercentilesAndDrops(t *testing.T) {
	reg := NewRegistry()
	h := reg.Scope("run").Histogram("iter_wall_ns")
	for i := 0; i < 100; i++ {
		h.Observe(int64(i) * 1000)
	}
	var buf bytes.Buffer
	if err := (SummarySink{W: &buf}).Write(reg.Snapshot(true)); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"p50=", "p95=", "p99=", "n=100"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}

	// Overflow the 4-slot ring with five spans (ten events): the drop
	// count must appear with the kept events present, and again after
	// they were drained.
	small := NewRegistrySized(4)
	small.EnableTracing(true)
	sc := small.Scope("s")
	for i := 0; i < 5; i++ {
		sc.EndedSpan(SpanKernelMmap, SpanRef{}, int64(i))
	}
	for _, want := range []string{"spans: 4 recorded, 6 dropped", "spans: 0 recorded, 6 dropped"} {
		buf.Reset()
		if err := (SummarySink{W: &buf}).Write(small.Snapshot(true)); err != nil {
			t.Fatalf("Flush: %v", err)
		}
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("summary lacks %q:\n%s", want, buf.String())
		}
	}
}

// TestHistogramQuantiles pins the interpolation: exact bucket
// boundaries, overflow clamping, and empty histograms.
func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	if q := h.snapshot().Quantile(0.5); q != 0 {
		t.Fatalf("empty histogram p50 = %d, want 0", q)
	}
	// All mass in bucket 0 (<= 64): quantiles interpolate within [0, 64].
	for i := 0; i < 10; i++ {
		h.Observe(10)
	}
	s := h.snapshot()
	if s.P50 < 0 || s.P50 > 64 {
		t.Fatalf("p50 = %d outside bucket 0 bounds", s.P50)
	}
	if s.P99 > 64 {
		t.Fatalf("p99 = %d outside bucket 0 bounds", s.P99)
	}
	// Overflow bucket reports the top finite bound, not an invention.
	var o Histogram
	o.Observe(int64(1) << 40)
	if got := o.snapshot().P50; got != maxFiniteBound {
		t.Fatalf("overflow p50 = %d, want %d", got, maxFiniteBound)
	}
	// Quantile argument clamping.
	if got := s.Quantile(2.0); got < s.P99 {
		t.Fatalf("Quantile(2.0) = %d below p99 %d", got, s.P99)
	}
	if got := s.Quantile(-1); got != 0 {
		t.Fatalf("Quantile(-1) = %d, want 0", got)
	}
}
