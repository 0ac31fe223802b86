package sysmon

import (
	"runtime"
	"testing"
	"time"
)

func TestDeltaFullBusy(t *testing.T) {
	a := Sample{User: 1000, Idle: 1000, CtxtSwitches: 100, Time: time.Unix(0, 0), OK: true}
	b := Sample{User: 2000, Idle: 1000, CtxtSwitches: 300, Time: time.Unix(2, 0), OK: true}
	u := Delta(a, b)
	if !u.OK {
		t.Fatal("delta not OK")
	}
	// 100% of CPU time busy → NumCPU cores' worth.
	want := float64(runtime.NumCPU()) * 100
	if u.CPUPercent != want {
		t.Errorf("CPUPercent %v, want %v", u.CPUPercent, want)
	}
	if u.CtxtPerSec != 100 {
		t.Errorf("CtxtPerSec %v, want 100", u.CtxtPerSec)
	}
}

func TestDeltaHalfBusy(t *testing.T) {
	a := Sample{User: 0, Idle: 0, Time: time.Unix(0, 0), OK: true}
	b := Sample{User: 500, System: 500, Idle: 1000, Time: time.Unix(1, 0), OK: true}
	u := Delta(a, b)
	want := float64(runtime.NumCPU()) * 50
	if u.CPUPercent != want {
		t.Errorf("CPUPercent %v, want %v", u.CPUPercent, want)
	}
}

func TestDeltaCountsIRQAsBusy(t *testing.T) {
	// The paper's formula: us + sys + hi + si over the total.
	a := Sample{Time: time.Unix(0, 0), OK: true}
	b := Sample{IRQ: 250, SoftIRQ: 250, Nice: 500, Idle: 1000, Time: time.Unix(1, 0), OK: true}
	u := Delta(a, b)
	want := float64(runtime.NumCPU()) * 50
	if u.CPUPercent != want {
		t.Errorf("CPUPercent %v, want %v", u.CPUPercent, want)
	}
}

func TestDeltaUnsupported(t *testing.T) {
	a := Sample{OK: false, Time: time.Unix(0, 0)}
	b := Sample{OK: true, Time: time.Unix(1, 0)}
	if u := Delta(a, b); u.OK {
		t.Error("delta of unsupported sample reported OK")
	}
}

func TestDeltaCounterWrapSafe(t *testing.T) {
	a := Sample{CtxtSwitches: 1000, User: 10, Idle: 10, Time: time.Unix(0, 0), OK: true}
	b := Sample{CtxtSwitches: 500, User: 20, Idle: 20, Time: time.Unix(1, 0), OK: true}
	if u := Delta(a, b); u.CtxtPerSec != 0 {
		t.Errorf("wrapped counter produced rate %v", u.CtxtPerSec)
	}
}

func TestReadDoesNotPanic(t *testing.T) {
	s := Read()
	// In sandboxes /proc/stat may be zeroed; either way Read must
	// return a coherent sample.
	if s.OK && s.busy()+s.Idle == 0 {
		t.Error("OK sample with zero jiffies")
	}
}

func TestDeltaJiffyWrap(t *testing.T) {
	// Busy jiffies running backwards (reboot or counter wrap between
	// samples): uint64 subtraction would explode into a huge "busy"
	// interval, so Delta must degrade instead of reporting nonsense.
	a := Sample{User: 2000, Idle: 1000, Time: time.Unix(0, 0), OK: true}
	b := Sample{User: 1000, Idle: 2000, Time: time.Unix(1, 0), OK: true}
	if u := Delta(a, b); u.OK {
		t.Errorf("busy-wrap delta reported OK (cpu %v%%)", u.CPUPercent)
	}
	// Idle wrapping alone must degrade too.
	a = Sample{User: 100, Idle: 5000, Time: time.Unix(0, 0), OK: true}
	b = Sample{User: 200, Idle: 100, Time: time.Unix(1, 0), OK: true}
	if u := Delta(a, b); u.OK {
		t.Error("idle-wrap delta reported OK")
	}
}

func TestDeltaZeroDuration(t *testing.T) {
	// Two samples at the same instant (or clock stepping backwards)
	// have no interval to divide by; the delta must degrade rather
	// than divide by zero or report infinite rates.
	a := Sample{User: 100, Idle: 100, CtxtSwitches: 10, Time: time.Unix(5, 0), OK: true}
	b := Sample{User: 200, Idle: 200, CtxtSwitches: 20, Time: time.Unix(5, 0), OK: true}
	u := Delta(a, b)
	if u.OK {
		t.Error("zero-duration delta reported OK")
	}
	if u.CPUPercent != 0 || u.CtxtPerSec != 0 {
		t.Errorf("zero-duration delta produced rates: cpu %v ctxt %v", u.CPUPercent, u.CtxtPerSec)
	}
	b.Time = time.Unix(4, 0) // clock went backwards
	if u := Delta(a, b); u.OK {
		t.Error("negative-duration delta reported OK")
	}
}

func TestReadUnreadableProcStat(t *testing.T) {
	old := procStatPath
	procStatPath = t.TempDir() + "/definitely-missing"
	defer func() { procStatPath = old }()
	s := Read()
	if s.OK {
		t.Error("unreadable stat file reported OK")
	}
	if s.busy() != 0 || s.CtxtSwitches != 0 {
		t.Error("unreadable stat file produced nonzero counters")
	}
	if u := Delta(s, s); u.OK {
		t.Error("delta over degraded samples reported OK")
	}
}

func TestParseStatFixtures(t *testing.T) {
	var s Sample
	parseStat("cpu  10 20 30 40 50 60 70 0 0 0\nctxt 12345\n", &s)
	if !s.OK {
		t.Fatal("well-formed fixture not OK")
	}
	if s.User != 10 || s.Nice != 20 || s.System != 30 || s.Idle != 40 ||
		s.IOWait != 50 || s.IRQ != 60 || s.SoftIRQ != 70 {
		t.Errorf("parsed fields wrong: %+v", s)
	}
	if s.CtxtSwitches != 12345 {
		t.Errorf("ctxt %d, want 12345", s.CtxtSwitches)
	}

	// All-zero counters (sandboxed procfs) must read as unsupported.
	var z Sample
	parseStat("cpu  0 0 0 0 0 0 0 0 0 0\nctxt 0\n", &z)
	if z.OK {
		t.Error("zeroed counters reported OK")
	}

	// A truncated cpu line (fewer than 7 jiffy fields) is not enough
	// to evaluate the paper's formula.
	var tr Sample
	parseStat("cpu  1 2 3\n", &tr)
	if tr.OK {
		t.Error("truncated cpu line reported OK")
	}
}
