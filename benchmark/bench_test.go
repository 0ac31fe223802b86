package main

import (
	"bytes"
	"math"
	"os"
	"testing"
	"time"

	leaps "leapsandbounds"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestSelfTimesNestedAndOverlapping(t *testing.T) {
	spans := []span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0}, // overlaps a by 10
		{Name: "a.inner", Start: 15, End: 25, Parent: 1},
		{Name: "c", Start: 90, End: 120, Parent: 0}, // sticks out of op by 20
	}
	want := []int64{100 - 50 - 10, 30 - 10, 30, 10, 30}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestRecorderTotalsPerOp(t *testing.T) {
	r := &recorder{}
	root := r.begin("op")
	for i := 0; i < 3; i++ {
		r.end(r.begin("wasi.fd_read"))
	}
	r.end(root)
	tot := r.finishOp(1)
	if tot.count["wasi.fd_read"] != 3 || tot.count["op"] != 1 {
		t.Fatalf("counts = %v", tot.count)
	}
	if tot.self["op"]+tot.total["wasi.fd_read"] != tot.total["op"] {
		t.Errorf("op self %g + children %g != op total %g", tot.self["op"], tot.total["wasi.fd_read"], tot.total["op"])
	}
	if len(r.cur) != 0 || r.op != 1 || len(r.kept) != 4 {
		t.Errorf("recorder not reset: cur=%d op=%d kept=%d", len(r.cur), r.op, len(r.kept))
	}
	var none *recorder
	none.end(none.begin("x")) // a nil recorder records nothing
}

func TestTailRule(t *testing.T) {
	for n, want := range map[int]float64{9: 0, 19: 0, 20: 50, 100: 90, 1000: 99, 10000: 99.9} {
		if got, _ := tailIndex(n); got != want {
			t.Errorf("tail percentile for n=%d is %g, want %g", n, got, want)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if d := summarize(xs); d.TailPct != 90 || d.Tail != 90 {
		t.Errorf("p%g = %g, want p90 = 90 (ten samples beyond it)", d.TailPct, d.Tail)
	}
}

func TestGeomeanOfMedians(t *testing.T) {
	d := combine([]dist{summarize([]float64{1, 2, 300}), summarize([]float64{8, 8, 8, 8})}, 0.5)
	if !near(d.Median, 4) || d.N != 7 {
		t.Errorf("combine: median %g n %d, want geomean(2, 8) = 4 over 7 samples", d.Median, d.N)
	}
	if got := geomean([]float64{0, 4, 9}); !near(got, 6) {
		t.Errorf("geomean skipping empty cells = %g, want 6", got)
	}
}

// TestReaders: the host is quiet for a second, then busy for a second,
// during which the kernel and the ops take twice as long. Both readers
// must report the quiet host's op time.
func TestReaders(t *testing.T) {
	defer func(old hostSpeed) { host = old }(host)
	host = hostSpeed{}
	c := &cell{}
	for i := 0; i < 80; i++ {
		at, slow := float64(i)*25, 1.0
		if i >= 40 {
			slow = 2
		}
		host.record(at, slow*calibRefMs)
		c.samples = append(c.samples, sample{start: at + 5, end: at + 15, total: 10 * slow, wall: 11 * slow})
	}
	// Away from the edge between the two seconds every op reads 10 ms
	// against the kernel around it; the quick reader finds the quiet ops.
	for _, rd := range []reader{newReader(false), newReader(true)} {
		d := c.read(rd, opTimes)
		if got := d.at(rd.quantile()); !near(got, 10) {
			t.Errorf("quick=%v: cell reads %g ms, want 10", rd.quick, got)
		}
		if r := timing("op_ms", combine([]dist{d}, rd.quantile())); !near(r.v, 10) || r.unit != "ms" {
			t.Errorf("quick=%v: timing row reports %g, want 10", rd.quick, r.v)
		}
		// Two cells, 11 ms each with the harness, 4 ms of collections over
		// 2 rounds: 2 ops per 24 ms.
		if r := throughput(rd, []*cell{c, c}, 2, 4); !near(r.v, 2/0.024) {
			t.Errorf("quick=%v: throughput %g 1/s, want %g", rd.quick, r.v, 2/0.024)
		}
	}
	if got := c.read(newReader(true), opTimes).Median; !near(got, 15) {
		t.Errorf("quick reader's median = %g, want the raw 15", got)
	}
	if f := host.around(-1000, -900); !near(f, 1) {
		t.Errorf("factor before the first timing = %g, want that of the nearest three, 1", f)
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{7, 1, 9, 3, 5, 2, 10, 4, 8, 6}
	med, rel := spread(xs)
	if !near(med, 5.5) || !near(rel, 1) {
		t.Errorf("spread = (%g, %g), want (5.5, 1)", med, rel)
	}
}

func TestCorpusDeterministicAndMatchesEvaluator(t *testing.T) {
	counts := []int{3, 17}
	a, err := genCorpus(42, counts)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := genCorpus(42, counts)
	c, _ := genCorpus(43, counts)
	for i := range a {
		if !bytes.Equal(a[i].bytes, b[i].bytes) || a[i].want != b[i].want {
			t.Errorf("%s: same seed, different module", a[i].name)
		}
		if bytes.Equal(a[i].bytes, c[i].bytes) {
			t.Errorf("%s: different seed, same module", a[i].name)
		}
		m, err := leaps.DecodeModule(a[i].bytes)
		if err != nil {
			t.Fatal(err)
		}
		for _, engine := range []string{wasm3, wavm} {
			cm, err := coldCompile(engine, m)
			if err != nil {
				t.Fatal(err)
			}
			inst, err := cm.Instantiate(leaps.NewProcess(profile).Config(leaps.Trap), nil)
			if err != nil {
				t.Fatal(err)
			}
			res, err := inst.Invoke("run")
			if err != nil || res[0] != a[i].want {
				t.Errorf("%s on %s: digest %x (%v), Go evaluator %x", a[i].name, engine, res, err, a[i].want)
			}
			inst.Close()
		}
	}
}

func TestSpecMatchesTables(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadDefs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the driver", len(spec.Workloads), len(workloadDefs))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadDefs[i].name || w.Why != workloadDefs[i].why || len(w.Why) > 200 {
			t.Errorf("workload %d: %q differs from the driver's %q, or its why is over 200 characters", i, w.Name, workloadDefs[i].name)
		}
	}
	if len(spec.EndToEnd) != len(endToEndDefs) || len(spec.PerLayer) != len(layerDefs) || len(layerDefs) > 128 {
		t.Fatalf("metric counts: file %d+%d, driver %d+%d (per-layer limit 128)",
			len(spec.EndToEnd), len(spec.PerLayer), len(endToEndDefs), len(layerDefs))
	}
	seen := map[string]bool{}
	for i, m := range spec.EndToEnd {
		if m.metricDef != endToEndDefs[i] || m.Bound <= 0 || m.Bound > 0.25 || seen[m.Name] {
			t.Errorf("end_to_end %d: %+v vs %+v", i, m, endToEndDefs[i])
		}
		seen[m.Name] = true
	}
	for i, m := range spec.PerLayer {
		if m != layerDefs[i] || seen[m.Name] || len(m.Name) > 64 || len(m.Unit) > 16 {
			t.Errorf("per_layer %d: %+v vs %+v", i, m, layerDefs[i])
		}
		seen[m.Name] = true
	}
	if !seen["setup_s"] {
		t.Error("no setup_s metric")
	}
}

// TestSmoke runs every workload once untraced and once traced at the
// smallest sizes and checks that each named metric comes back with its
// unit and that no op failed.
func TestSmoke(t *testing.T) {
	class, epochs, corpusFuncCounts = leaps.SizeTest, 2, []int{4, 9}
	probeSize.accesses, probeSize.mappings, probeSize.hazardOps, probeSize.retireOps = 1<<16, 3, 1<<10, 1<<8
	outDir = t.TempDir()
	for i := range workloadDefs {
		def := &workloadDefs[i]
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(def, 5, time.Millisecond, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", def.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < len(groups) {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d", def.name, traced, res.Correct, res.Failed, res.Attempted)
			}
			defs := endToEndDefs
			if traced {
				defs = layerDefs
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", def.name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				mv, ok := res.Metrics[d.Name]
				if !ok || mv.Unit != d.Unit || math.IsNaN(mv.Value) || math.IsInf(mv.Value, 0) {
					t.Errorf("%s traced=%v: metric %s = %+v (present %v), want unit %s", def.name, traced, d.Name, mv, ok, d.Unit)
				}
				if !traced && mv.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g, must never be 0", def.name, d.Name, mv.Value)
				}
			}
		}
		if _, err := os.Stat(outDir + "/" + def.name + ".trace.json"); err != nil {
			t.Errorf("%s: no trace written: %v", def.name, err)
		}
	}
}
