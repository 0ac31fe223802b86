package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// buildTestTrace records a small span forest across two "strategies":
// run -> iter -> invoke -> fault -> kernel.mprotect (+ a lock wait)
// for mprotect, and run -> iter -> invoke -> fault -> uffd.copy for
// uffd, plus one deliberately incomplete span.
func buildTestTrace(t *testing.T) *Registry {
	t.Helper()
	r := NewRegistry()
	r.EnableTracing(true)
	mp := r.Scope("run[engine=wavm workload=gemm strategy=mprotect threads=4]")
	uf := r.Scope("run[engine=wavm workload=gemm strategy=uffd threads=4]")

	record := func(sc *Scope, kernel SpanKind, withWait bool) {
		run := sc.StartSpan(SpanRun, SpanRef{})
		iter := sc.StartSpan(SpanIter, run.Ref())
		invoke := sc.StartSpan(SpanInvoke, iter.Ref())
		fault := sc.StartSpan(SpanFault, invoke.Ref())
		k := sc.StartSpan(kernel, fault.Ref())
		if withWait {
			sc.EndedSpan(SpanVMALockWait, k.Ref(), 1000)
		}
		time.Sleep(20 * time.Microsecond)
		k.End()
		fault.End()
		invoke.End()
		iter.End()
		run.End()
	}
	record(mp, SpanKernelMprotect, true)
	record(uf, SpanUffdCopy, false)

	// An open span (no End) must be counted incomplete, not rendered,
	// and has no time to attribute yet.
	_ = mp.StartSpan(SpanIter, SpanRef{})
	return r
}

// TestWriteChromeTrace validates the exported JSON: decodable, all
// duration events, balanced B/E nesting per tid with monotonic
// timestamps, and the incomplete span excluded but counted.
func TestWriteChromeTrace(t *testing.T) {
	r := buildTestTrace(t)
	snap := r.Snapshot(true)
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, snap); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Ts   float64           `json:"ts"`
			Pid  int64             `json:"pid"`
			Tid  int64             `json:"tid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
		OtherData map[string]any `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	// 2 trees x 6 spans (incl. lock wait on one, minus one on the
	// other) = 11 complete spans -> 22 events.
	if len(doc.TraceEvents) != 22 {
		t.Fatalf("got %d trace events, want 22", len(doc.TraceEvents))
	}
	if got := doc.OtherData["incomplete_spans"]; got != float64(1) {
		t.Fatalf("incomplete_spans = %v, want 1", got)
	}

	// Per-tid: timestamps monotonic, B/E balanced and properly nested.
	type frame struct{ name string }
	stacks := map[int64][]frame{}
	lastTs := map[int64]float64{}
	names := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "B" && ev.Ph != "E" {
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
		if ts, ok := lastTs[ev.Tid]; ok && ev.Ts < ts {
			t.Fatalf("timestamps not monotonic on tid %d: %f after %f", ev.Tid, ev.Ts, ts)
		}
		lastTs[ev.Tid] = ev.Ts
		names[ev.Name] = true
		st := stacks[ev.Tid]
		if ev.Ph == "B" {
			stacks[ev.Tid] = append(st, frame{ev.Name})
			continue
		}
		if len(st) == 0 {
			t.Fatalf("E %q on tid %d with empty stack", ev.Name, ev.Tid)
		}
		top := st[len(st)-1]
		if top.name != ev.Name {
			t.Fatalf("unbalanced nesting on tid %d: E %q closes B %q", ev.Tid, ev.Name, top.name)
		}
		stacks[ev.Tid] = st[:len(st)-1]
	}
	for tid, st := range stacks {
		if len(st) != 0 {
			t.Fatalf("tid %d has %d unclosed spans", tid, len(st))
		}
	}
	for _, want := range []string{"run", "iter", "invoke", "fault", "kernel.mprotect", "uffd.copy", "vma_lock_wait"} {
		if !names[want] {
			t.Errorf("trace missing span name %q", want)
		}
	}
}

// TestAttribute checks the per-strategy bucket decomposition: the
// mprotect row sees lock-wait time, the uffd row does not, and
// exclusive time keeps parent buckets from double-counting children.
func TestAttribute(t *testing.T) {
	r := buildTestTrace(t)
	snap := r.Snapshot(true)
	// Bounds-check counters attribute by run label too.
	snap.Counters["run[engine=wavm workload=gemm strategy=mprotect threads=4]/proc0/engine/cycles/checktrap"] = 123
	rep := Attribute(snap)
	if len(rep.Rows) != 2 {
		t.Fatalf("rows = %+v, want mprotect and uffd", rep.Rows)
	}
	mp := rep.Row("mprotect")
	uf := rep.Row("uffd")
	if mp.NsByBucket["vma_lock_wait"] == 0 {
		t.Error("mprotect row has no vma_lock_wait time")
	}
	if uf.NsByBucket["vma_lock_wait"] != 0 {
		t.Errorf("uffd row has vma_lock_wait time %d, want 0", uf.NsByBucket["vma_lock_wait"])
	}
	if mp.NsByBucket["page_populate"] == 0 || uf.NsByBucket["page_populate"] == 0 {
		t.Error("kernel op time missing from page_populate bucket")
	}
	if mp.BoundsCheckOps != 123 {
		t.Errorf("BoundsCheckOps = %d, want 123", mp.BoundsCheckOps)
	}
	// Exclusive-time invariant: the bucket totals sum to each tree's
	// root duration, no more (no double counting) and no less.
	for _, row := range rep.Rows {
		var sum int64
		for _, ns := range row.NsByBucket {
			sum += ns
		}
		root := snap.Counters["run[engine=wavm workload=gemm strategy="+row.Strategy+" threads=4]/span_ns/run"]
		if sum != row.TotalNs || sum-row.OverlapNs != root {
			t.Errorf("row %s: bucket sum %d, total %d, overlap %d, run span %d ns", row.Strategy, sum, row.TotalNs, row.OverlapNs, root)
		}
	}
	if mp.Share("vma_lock_wait") <= uf.Share("vma_lock_wait") {
		t.Errorf("lock-wait share mprotect (%.3f) not above uffd (%.3f)",
			mp.Share("vma_lock_wait"), uf.Share("vma_lock_wait"))
	}

	var buf bytes.Buffer
	if err := WriteAttribution(&buf, rep); err != nil {
		t.Fatalf("WriteAttribution: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"STRATEGY", "VMA_LOCK_WAIT", "mprotect", "uffd"} {
		if !strings.Contains(out, want) {
			t.Errorf("attribution table missing %q:\n%s", want, out)
		}
	}
}

// TestAttributionExactPastRingCapacity: the table is sums of counters,
// not a walk of what the ring kept. 20 000 spans of known durations
// go through a 1 024-slot ring under two run labels — per iteration a
// parentless invoke, a fault under an invoke, a kernel.mprotect under
// a fault and a lock wait under a kernel.mprotect — so the ring drops
// all but the first few hundred, and every bucket of both rows must
// still equal the known sum, the buckets summing to the parentless
// (invoke) time as integers.
func TestAttributionExactPastRingCapacity(t *testing.T) {
	r := NewRegistrySized(1 << 10)
	r.EnableTracing(true)
	under := func(k SpanKind) SpanRef { return SpanRef{Word: 1<<8 | int64(k)} }
	want := map[string]map[string]int64{"mprotect": {}, "uffd": {}}
	for i := int64(0); i < 5000; i++ {
		strategy := [2]string{"mprotect", "uffd"}[i%2]
		sc := r.Scope("run[engine=wavm workload=gemm strategy=" + strategy + " threads=4]").Child("proc0")
		wait, kernel, fault, invoke := i%7, 10+i%13, 30+i%17, 100+i%101
		sc.EndedSpan(SpanVMALockWait, under(SpanKernelMprotect), wait)
		sc.EndedSpan(SpanKernelMprotect, under(SpanFault), kernel)
		sc.EndedSpan(SpanFault, under(SpanInvoke), fault)
		sc.EndedSpan(SpanInvoke, SpanRef{}, invoke)
		w := want[strategy]
		w["vma_lock_wait"] += wait
		w["page_populate"] += kernel - wait
		w["fault_handle"] += fault - kernel
		w["exec"] += invoke - fault
		w["total"] += invoke
	}
	snap := r.Snapshot(true)
	if snap.DroppedEvents == 0 {
		t.Fatal("the ring dropped nothing; the test measures nothing")
	}
	rep := Attribute(snap)
	if len(rep.Rows) != 2 {
		t.Fatalf("rows = %+v, want mprotect and uffd", rep.Rows)
	}
	for strategy, w := range want {
		row := rep.Row(strategy)
		var sum int64
		for _, b := range attributionBuckets {
			sum += row.NsByBucket[b]
			if row.NsByBucket[b] != w[b] {
				t.Errorf("%s %s = %d ns, want %d", strategy, b, row.NsByBucket[b], w[b])
			}
		}
		if sum != w["total"] || row.TotalNs != w["total"] || row.OverlapNs != 0 {
			t.Errorf("%s: buckets sum to %d, TotalNs %d, overlap %d, parentless spans lasted %d", strategy, sum, row.TotalNs, row.OverlapNs, w["total"])
		}
	}
}

// TestBuildSpanTreeOrphans: children of dropped/incomplete parents
// must surface as roots, not vanish.
func TestBuildSpanTreeOrphans(t *testing.T) {
	events := []EventRecord{
		// Parent 7 has only an end (begin dropped by ring overflow).
		{TimeNs: 5, Scope: "s", Kind: "span_end", A: 7<<8 | int64(SpanIter)},
		// Child of 7: complete.
		{TimeNs: 1, Scope: "s", Kind: "span_begin", A: 8<<8 | int64(SpanInvoke), B: 7},
		{TimeNs: 4, Scope: "s", Kind: "span_end", A: 8<<8 | int64(SpanInvoke)},
	}
	roots, incomplete := buildSpanTree(events)
	if incomplete != 1 {
		t.Fatalf("incomplete = %d, want 1", incomplete)
	}
	if len(roots) != 1 || roots[0].id != 8 {
		t.Fatalf("orphan child not promoted to root: %+v", roots)
	}
}

// TestScopeStrategy pins the label parser.
func TestScopeStrategy(t *testing.T) {
	cases := map[string]string{
		"run[engine=wavm workload=gemm strategy=uffd threads=4]/proc0/vmm": "uffd",
		"run[strategy=mprotect]": "mprotect",
		"plain/scope":            "(none)",
		"":                       "(none)",
	}
	for in, want := range cases {
		if got := scopeStrategy(in); got != want {
			t.Errorf("scopeStrategy(%q) = %q, want %q", in, got, want)
		}
	}
}
