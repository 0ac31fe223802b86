package prof

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"leapsandbounds/internal/isa"
)

func TestPackRoundTrip(t *testing.T) {
	v := pack(12345, isa.ClassCheckTrap, FlagChecked)
	if v&cellActive == 0 {
		t.Fatal("packed value not marked active")
	}
	if fn := uint32(v >> 24); fn != 12345 {
		t.Errorf("fn %d, want 12345", fn)
	}
	if cls := isa.OpClass(uint8(v >> 8)); cls != isa.ClassCheckTrap {
		t.Errorf("class %v, want checktrap", cls)
	}
	if fl := uint8(v); fl != FlagChecked {
		t.Errorf("flags %#x, want %#x", fl, FlagChecked)
	}
}

func TestCellSetIdleNilSafe(t *testing.T) {
	var nilCell *Cell
	nilCell.Set(1, isa.ClassALU, 0) // must not panic
	nilCell.Idle()

	c := &Cell{}
	c.Set(7, isa.ClassLoad, FlagElided)
	if v := c.cur.Load(); v != pack(7, isa.ClassLoad, FlagElided) {
		t.Errorf("cell holds %#x, want %#x", v, pack(7, isa.ClassLoad, FlagElided))
	}
	c.Idle()
	if v := c.cur.Load(); v != 0 {
		t.Errorf("idle cell holds %#x, want 0", v)
	}
}

func TestRegisterStoppedReturnsNil(t *testing.T) {
	p := New(0)
	if p.hz != DefaultHz {
		t.Errorf("hz %d, want %d", p.hz, DefaultHz)
	}
	if c := p.Register("interp", "trap", nil); c != nil {
		t.Error("stopped profiler handed out a live cell")
	}
	var nilProf *Profiler
	if c := nilProf.Register("interp", "trap", nil); c != nil {
		t.Error("nil profiler handed out a cell")
	}
	nilProf.Unregister(nil)
	nilProf.Start()
	nilProf.Stop()
}

func TestSamplerAggregates(t *testing.T) {
	p := New(4001)
	p.Start()
	defer p.Stop()
	c := p.Register("wavm", "trap", []string{"", "run"})
	if c == nil {
		t.Fatal("running profiler returned nil cell")
	}
	idleCell := p.Register("wavm", "trap", nil)
	idleCell.Idle()

	c.Set(1, isa.ClassCheckTrap, FlagChecked)
	deadline := time.After(5 * time.Second)
	for {
		if pr := p.Snapshot(); pr.Samples > 0 && pr.Idle > 0 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("sampler produced no samples in 5s")
		case <-time.After(5 * time.Millisecond):
		}
	}
	p.Stop() // idempotent with the deferred Stop
	pr := p.Snapshot()
	if len(pr.Rows) != 1 {
		t.Fatalf("%d rows, want 1: %+v", len(pr.Rows), pr.Rows)
	}
	r := pr.Rows[0]
	if r.Engine != "wavm" || r.Strategy != "trap" || r.Func != "run" ||
		r.Class != "checktrap" || !r.Checked || r.Elided {
		t.Errorf("row %+v", r)
	}
	if r.Share <= 0 || r.Share > 1 {
		t.Errorf("share %v", r.Share)
	}
	if got := pr.CheckShare("trap"); got != 1 {
		t.Errorf("CheckShare(trap) = %v, want 1 (every sample checked)", got)
	}
	if got := pr.CheckShare("mprotect"); got != 0 {
		t.Errorf("CheckShare(mprotect) = %v, want 0 (no samples)", got)
	}
	if got := pr.StrategySamples("trap"); got != r.Count {
		t.Errorf("StrategySamples %d, want %d", got, r.Count)
	}

	// Unknown function indices fall back to a synthesized name.
	if name := c.fnName(99); name != "fn99" {
		t.Errorf("fnName(99) = %q", name)
	}
	p.Unregister(c)
	p.Unregister(idleCell)
}

func TestWriteFoldedAndTable(t *testing.T) {
	pr := Profile{
		Hz:      997,
		Samples: 10,
		Rows: []Row{
			{Engine: "wavm", Strategy: "trap", Func: "run", Class: "checktrap", Checked: true, Count: 6, Share: 0.6},
			{Strategy: "mprotect", Func: "run", Class: "load", Elided: true, Count: 4, Share: 0.4},
		},
	}
	var folded bytes.Buffer
	if err := pr.WriteFolded(&folded); err != nil {
		t.Fatal(err)
	}
	got := folded.String()
	if !strings.Contains(got, "wavm;trap;run;checktrap!check 6\n") {
		t.Errorf("folded missing checked frame:\n%s", got)
	}
	// Empty engine defaults to "wasm"; elided accesses carry ~elided.
	if !strings.Contains(got, "wasm;mprotect;run;load~elided 4\n") {
		t.Errorf("folded missing elided frame:\n%s", got)
	}
	var table bytes.Buffer
	if err := pr.WriteTable(&table, 1); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(table.String(), "checktrap!check") {
		t.Errorf("table missing top row:\n%s", table.String())
	}
	if strings.Contains(table.String(), "mprotect") {
		t.Errorf("table ignored the n=1 cap:\n%s", table.String())
	}
}

func TestPprofRoundTrip(t *testing.T) {
	pr := Profile{
		Hz:      997,
		Samples: 10,
		Rows: []Row{
			{Engine: "wavm", Strategy: "trap", Func: "run", Class: "checktrap", Checked: true, Count: 6, Share: 0.6},
			{Engine: "wavm", Strategy: "trap", Func: "run", Class: "mul", Count: 4, Share: 0.4},
		},
	}
	var buf bytes.Buffer
	if err := pr.WritePprof(&buf); err != nil {
		t.Fatal(err)
	}
	sum, err := ParsePprof(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Samples != 2 {
		t.Errorf("%d samples, want 2", sum.Samples)
	}
	if sum.SampleTypes != 2 {
		t.Errorf("%d sample types, want 2 (samples/count, time/ns)", sum.SampleTypes)
	}
	if sum.Locations == 0 || sum.Functions == 0 || sum.Strings < 2 {
		t.Errorf("summary %+v", sum)
	}

	// An empty profile still encodes and parses (zero samples).
	buf.Reset()
	if err := (&Profile{Hz: 997}).WritePprof(&buf); err != nil {
		t.Fatal(err)
	}
	sum, err = ParsePprof(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Samples != 0 {
		t.Errorf("empty profile parsed with %d samples", sum.Samples)
	}

	// Garbage must not parse.
	if _, err := ParsePprof(strings.NewReader("not gzip")); err == nil {
		t.Error("garbage parsed as pprof")
	}
}

func TestCounterSampleDegradation(t *testing.T) {
	ok := CounterSample{Instructions: 100, Cycles: 200, OK: true}
	later := CounterSample{Instructions: 150, Cycles: 260, OK: true}
	d := ok.Delta(later)
	if !d.OK || d.Instructions != 50 || d.Cycles != 60 {
		t.Errorf("delta %+v", d)
	}
	// Either side degraded → degraded delta.
	if d := (CounterSample{}).Delta(later); d.OK {
		t.Error("delta from degraded sample reported OK")
	}
	if d := ok.Delta(CounterSample{}); d.OK {
		t.Error("delta to degraded sample reported OK")
	}
	// A counter running backwards (group reopened) degrades.
	if d := later.Delta(ok); d.OK {
		t.Error("backwards delta reported OK")
	}
}

func TestRusageSampleDegradation(t *testing.T) {
	a := RusageSample{UserNs: 100, MaxRSSKB: 500, MinorFaults: 10, OK: true}
	b := RusageSample{UserNs: 300, MaxRSSKB: 600, MinorFaults: 25, OK: true}
	d := a.Delta(b)
	if !d.OK || d.UserNs != 200 || d.MinorFaults != 15 {
		t.Errorf("delta %+v", d)
	}
	if d.MaxRSSKB != 600 {
		t.Errorf("MaxRSS %d, want later absolute 600", d.MaxRSSKB)
	}
	if d := (RusageSample{}).Delta(b); d.OK {
		t.Error("degraded rusage delta reported OK")
	}
	if d := b.Delta(a); d.OK {
		t.Error("backwards rusage delta reported OK")
	}
}

func TestHWStatsMergeDegradesIndependently(t *testing.T) {
	var hw HWStats
	hw.MergeCounters(CounterSample{}) // degraded: must not flip support
	hw.MergeRusage(RusageSample{UserNs: 5, OK: true})
	if hw.PerfSupported {
		t.Error("degraded counter merge set PerfSupported")
	}
	if !hw.RusageSupported || hw.UserNs != 5 {
		t.Errorf("rusage half not merged: %+v", hw)
	}
	hw.MergeCounters(CounterSample{Instructions: 7, OK: true})
	hw.MergeCounters(CounterSample{Instructions: 3, OK: true})
	if !hw.PerfSupported || hw.Instructions != 10 {
		t.Errorf("perf half not accumulated: %+v", hw)
	}
	hw.MergeRusage(RusageSample{MaxRSSKB: 9, OK: true})
	hw.MergeRusage(RusageSample{MaxRSSKB: 4, OK: true})
	if hw.MaxRSSKB != 9 {
		t.Errorf("MaxRSS %d, want high-water 9", hw.MaxRSSKB)
	}
}

func TestGroupDegradesGracefully(t *testing.T) {
	g := OpenGroup()
	defer g.Close()
	g.Read() // live or degraded, either is fine here
	g.Close()
	g.Close() // idempotent
	if g.Read().OK {
		t.Error("closed group read OK")
	}
	if (&Group{}).Read().OK {
		t.Error("zero group read OK")
	}
}
