package harness

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"leapsandbounds/internal/isa"
	"leapsandbounds/internal/mem"
	"leapsandbounds/internal/obs"
	"leapsandbounds/internal/workloads"
)

func traceSpec(t *testing.T, name string) workloads.Spec {
	t.Helper()
	s, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// tracedPair runs the grow workload multithreaded under both paging
// strategies into one tracing registry and returns its snapshot.
func tracedPair(t *testing.T, measure int) *obs.Snapshot {
	t.Helper()
	reg := obs.NewRegistrySized(1 << 18)
	reg.EnableTracing(true)
	wl := traceSpec(t, "jacobi-1d")
	for _, s := range []mem.Strategy{mem.Mprotect, mem.Uffd} {
		res, err := Run(Options{
			Engine:   EngineWAVM,
			Workload: wl,
			Class:    workloads.Test,
			Strategy: s,
			Profile:  isa.X86_64(),
			Threads:  8,
			Warmup:   1,
			Measure:  measure,
			Obs:      reg,
		})
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if len(res.Times) == 0 {
			t.Fatalf("%v: no samples", s)
		}
	}
	return reg.Snapshot(true)
}

// assertFaultPathLocking checks the paper's §4.2 mechanism on a
// drained snapshot of an mprotect run and a uffd run, as the structure
// of the span tree rather than as a ratio of wall-time shares (which a
// quiet host can legitimately invert): the mprotect strategy's fault
// spans parent kernel.mprotect spans — the mmap-lock acquisitions on
// its fault path — while no uffd fault span has a kernel operation or a
// lock wait beneath it; uffd faults resolve through uffd.copy alone.
//
// With exact set (private memories, one faulting thread per mapping;
// neither run commits eagerly) every mprotect(2) call vmm counted must
// appear as such a span. Workers that fault on one shared mapping save
// and restore its single span-parent field around their faults without
// synchronizing with each other, so a sibling's restore can re-parent a
// kernel.mprotect span under the run; there the count is only bounded
// by the call count.
func assertFaultPathLocking(t *testing.T, snap *obs.Snapshot, exact bool) {
	t.Helper()
	if exact && snap.DroppedEvents != 0 {
		t.Fatalf("trace ring dropped %d events; the span tree is incomplete", snap.DroppedEvents)
	}
	type span struct {
		kind   obs.SpanKind
		parent int64
		scope  string
	}
	spans := map[int64]span{}
	for _, ev := range snap.Events {
		if ev.Kind == obs.SpanBegin {
			spans[obs.SpanEventID(ev.A)] = span{obs.SpanEventKind(ev.A), ev.B, ev.Scope}
		}
	}
	// faultStrategy returns the strategy of the nearest fault span at
	// or above id ("" when there is none).
	faultStrategy := func(id int64) string {
		for id != 0 {
			sp, ok := spans[id]
			if !ok {
				return ""
			}
			if sp.kind == obs.SpanFault {
				for _, s := range []string{"mprotect", "uffd"} {
					if strings.Contains(sp.scope, "strategy="+s+" ") {
						return s
					}
				}
				return ""
			}
			id = sp.parent
		}
		return ""
	}
	faults := map[string]int{}
	// underFault[strategy][kind] counts spans with a fault ancestor.
	underFault := map[string]map[obs.SpanKind]int{"mprotect": {}, "uffd": {}, "": {}}
	for id, sp := range spans {
		if sp.kind == obs.SpanFault {
			faults[faultStrategy(id)]++
			continue
		}
		underFault[faultStrategy(sp.parent)][sp.kind]++
	}
	if faults["mprotect"] == 0 || faults["uffd"] == 0 {
		t.Fatalf("fault spans: mprotect=%d uffd=%d, want both > 0", faults["mprotect"], faults["uffd"])
	}
	mprotectCalls := int64(0)
	for name, v := range snap.Counters {
		if strings.Contains(name, "strategy=mprotect ") && strings.HasSuffix(name, "/mprotect_calls") {
			mprotectCalls += v
		}
	}
	got := int64(underFault["mprotect"][obs.SpanKernelMprotect])
	if got == 0 || got > mprotectCalls || (exact && got != mprotectCalls) {
		t.Errorf("mprotect: %d kernel.mprotect spans under fault spans, vmm counted %d mprotect calls (exact=%t)",
			got, mprotectCalls, exact)
	}
	for _, k := range []obs.SpanKind{obs.SpanKernelMmap, obs.SpanKernelMunmap, obs.SpanKernelMprotect, obs.SpanVMALockWait} {
		if n := underFault["uffd"][k]; n != 0 {
			t.Errorf("uffd: %d %v spans under fault spans, want 0 (the fault path takes no mmap lock)", n, k)
		}
	}
	if underFault["uffd"][obs.SpanUffdCopy] == 0 {
		t.Error("uffd: no uffd.copy span under any fault span")
	}
}

// TestRunTraceAttribution is the paper's headline claim as a test on a
// multithreaded run of private memories (see assertFaultPathLocking).
// It also validates the end-to-end Chrome trace export of real run
// spans.
func TestRunTraceAttribution(t *testing.T) {
	snap := tracedPair(t, 8)
	assertFaultPathLocking(t, snap, true)
	// Both strategies page memory in, so both populate pages; the exec
	// bucket must be present everywhere (sanity on the tree).
	rep := obs.Attribute(snap)
	for _, row := range []obs.AttributionRow{rep.Row("mprotect"), rep.Row("uffd")} {
		if row.TotalNs <= 0 {
			t.Errorf("row %s: no attributed time", row.Strategy)
		}
		if row.NsByBucket["exec"] == 0 {
			t.Errorf("row %s: no exec time", row.Strategy)
		}
	}

	// The same snapshot must export as a loadable Chrome trace: valid
	// JSON, only B/E phase events, balanced per tid.
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, snap); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Tid  int64   `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("empty trace from a traced run")
	}
	depth := map[int64]int{}
	names := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		names[ev.Name] = true
		switch ev.Ph {
		case "B":
			depth[ev.Tid]++
		case "E":
			depth[ev.Tid]--
			if depth[ev.Tid] < 0 {
				t.Fatalf("unbalanced E on tid %d", ev.Tid)
			}
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
	}
	for tid, d := range depth {
		if d != 0 {
			t.Fatalf("tid %d left %d spans open", tid, d)
		}
	}
	for _, want := range []string{"run", "iter", "instantiate", "invoke", "fault", "kernel.mprotect", "uffd.copy"} {
		if !names[want] {
			t.Errorf("run trace missing span %q", want)
		}
	}
}

// TestTracedSweepHasEveryStrategyRow: a sweep that outruns the trace
// ring still gets its whole attribution table. Five strategies × 8
// threads go into one default-sized registry — what `leapsbench -fig 3
// -trace` does — which fills the ring long before the last strategy
// starts; every strategy must still have a row with exec time in it,
// and each row, less the overlap of its 8 concurrent workers, must sum
// to its parentless spans' time exactly.
func TestTracedSweepHasEveryStrategyRow(t *testing.T) {
	reg := obs.NewRegistry()
	reg.EnableTracing(true)
	wl := traceSpec(t, "jacobi-1d")
	for _, s := range mem.Strategies() {
		_, err := Run(Options{
			Engine:   EngineWAVM,
			Workload: wl,
			Class:    workloads.Test,
			Strategy: s,
			Profile:  isa.X86_64(),
			Threads:  8,
			Warmup:   1,
			Measure:  64, // ≥ 5 × 8 × 65 iterations × 4 spans × 2 events > 16 384 slots
			Obs:      reg,
		})
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
	}
	snap := reg.Snapshot(true)
	if snap.DroppedEvents == 0 {
		t.Fatalf("the sweep fit the default ring (%d events); raise Measure or the test measures nothing", len(snap.Events))
	}
	rep := obs.Attribute(snap)
	if len(rep.Rows) != len(mem.Strategies()) {
		t.Errorf("%d attribution rows, want one per strategy: %+v", len(rep.Rows), rep.Rows)
	}
	for _, s := range mem.Strategies() {
		row := rep.Row(s.String())
		if row.NsByBucket["exec"] <= 0 {
			t.Errorf("row %s: exec = %d ns, want > 0", row.Strategy, row.NsByBucket["exec"])
		}
		// The parentless spans of a wavm run: the run itself and, when
		// an arena pool is drained, that teardown and its reclaim batch.
		var rootNs int64
		for name, v := range snap.Counters {
			if !strings.Contains(name, "strategy="+s.String()+" ") {
				continue
			}
			for _, k := range []obs.SpanKind{obs.SpanRun, obs.SpanPoolDrain, obs.SpanHazardReclaim} {
				if strings.HasSuffix(name, "/span_ns/"+k.String()) {
					rootNs += v
				}
			}
		}
		if row.TotalNs-row.OverlapNs != rootNs {
			t.Errorf("row %s: buckets sum to %d ns less %d of overlap, its parentless spans lasted %d",
				row.Strategy, row.TotalNs, row.OverlapNs, rootNs)
		}
	}
}

// TestHostcallTraceAttribution: a traced WASI run attributes time to
// the hostcall bucket under every strategy — core.CallHost opens a
// hostcall span around each host function, beneath the invoke span —
// and the span reaches the Chrome export under its own name.
func TestHostcallTraceAttribution(t *testing.T) {
	reg := obs.NewRegistrySized(1 << 18)
	reg.EnableTracing(true)
	wl := traceSpec(t, "kvstore")
	for _, s := range mem.Strategies() {
		res, err := Run(Options{
			Engine:   EngineWAVM,
			Workload: wl,
			Class:    workloads.Test,
			Strategy: s,
			Profile:  isa.X86_64(),
			Warmup:   1,
			Measure:  2,
			Obs:      reg,
		})
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if res.VM.Hostcalls == 0 {
			t.Fatalf("%v: kvstore made no hostcalls", s)
		}
	}
	snap := reg.Snapshot(true)
	if snap.DroppedEvents != 0 {
		t.Fatalf("trace ring dropped %d events; the span tree is incomplete", snap.DroppedEvents)
	}
	rep := obs.Attribute(snap)
	for _, s := range mem.Strategies() {
		row := rep.Row(s.String())
		if row.NsByBucket["hostcall"] <= 0 || row.NsByBucket["exec"] <= 0 {
			t.Errorf("row %s: hostcall=%d exec=%d ns, want both > 0",
				row.Strategy, row.NsByBucket["hostcall"], row.NsByBucket["exec"])
		}
	}
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, snap); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"name":"hostcall"`)) {
		t.Error("Chrome trace has no hostcall span")
	}
}

// TestRunSnapshotStableAfterReturn is the regression for the -metrics
// under-count: Run must join its resident watcher and any uffd poll
// servers before returning, so a snapshot taken right after Run is
// final — identical to one taken later.
func TestRunSnapshotStableAfterReturn(t *testing.T) {
	reg := obs.NewRegistry()
	_, err := Run(Options{
		Engine:   EngineWAVM,
		Workload: traceSpec(t, "jacobi-1d"),
		Class:    workloads.Test,
		Strategy: mem.Uffd,
		UffdPoll: true,
		Profile:  isa.X86_64(),
		Threads:  2,
		Warmup:   1,
		Measure:  2,
		Obs:      reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	first := reg.Snapshot(false)
	time.Sleep(10 * time.Millisecond) // a leaked ticker would fire here
	second := reg.Snapshot(false)
	if !reflect.DeepEqual(first.Counters, second.Counters) {
		t.Errorf("counters mutated after Run returned:\n%v\nvs\n%v", first.Counters, second.Counters)
	}
	if !reflect.DeepEqual(first.Gauges, second.Gauges) {
		t.Errorf("gauges mutated after Run returned:\n%v\nvs\n%v", first.Gauges, second.Gauges)
	}
}
