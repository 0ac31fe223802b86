package isa

import (
	"testing"
	"time"
)

func TestProfilesComplete(t *testing.T) {
	ps := Profiles()
	if len(ps) != 3 {
		t.Fatalf("%d profiles, want 3", len(ps))
	}
	names := map[string]bool{}
	for _, p := range ps {
		names[p.Name] = true
		if p.ClockGHz <= 0 || p.Cores <= 0 {
			t.Errorf("%s: bad clock/cores", p.Name)
		}
		for c := OpClass(0); c < NumClasses; c++ {
			if p.Cost[c] <= 0 {
				t.Errorf("%s: class %v has non-positive cost", p.Name, c)
			}
		}
		if p.VM.PageSize == 0 {
			t.Errorf("%s: zero page size", p.Name)
		}
	}
	for _, want := range []string{"x86_64", "aarch64", "riscv64"} {
		if !names[want] {
			t.Errorf("missing profile %s", want)
		}
	}
}

func TestByName(t *testing.T) {
	if ByName("x86_64") == nil || ByName("riscv64") == nil {
		t.Error("lookup failed")
	}
	if ByName("mips") != nil {
		t.Error("unknown name resolved")
	}
}

func TestPaperOrderings(t *testing.T) {
	x86, arm, rv := X86_64(), ARMv8(), riscv64()
	// The in-order single-issue core is slower per op everywhere.
	for c := OpClass(0); c < NumClasses; c++ {
		if rv.Cost[c] < x86.Cost[c] {
			t.Errorf("riscv %v cheaper than x86", c)
		}
	}
	// Clamp sequences cost more than trap checks on every ISA
	// (paper: clamping behaves worse than conditional traps).
	for _, p := range []*Profile{x86, arm, rv} {
		if p.Cost[ClassCheckClamp] <= p.Cost[ClassCheckTrap] {
			t.Errorf("%s: clamp not costlier than trap", p.Name)
		}
	}
	// THP sizes per the paper's §4.3: 1 GiB on x86, 2 MiB on Arm,
	// none on the RISC-V board.
	if x86.VM.THPSize != 1<<30 {
		t.Errorf("x86 THP %d", x86.VM.THPSize)
	}
	if arm.VM.THPSize != 2<<20 {
		t.Errorf("arm THP %d", arm.VM.THPSize)
	}
	if rv.VM.THPSize != 0 {
		t.Errorf("riscv THP %d", rv.VM.THPSize)
	}
	// 16/16/1 hardware threads (§3.4).
	if x86.Cores != 16 || arm.Cores != 16 || rv.Cores != 1 {
		t.Error("core counts do not match the paper's machines")
	}
}

func TestCountsArithmetic(t *testing.T) {
	var a Counts
	a[ClassALU] = 11
	a[ClassLoad] = 5
	if a.Total() != 16 {
		t.Errorf("Total: %d", a.Total())
	}
}

func TestCyclesAndTime(t *testing.T) {
	p := X86_64()
	var c Counts
	c[ClassALU] = 1000
	cycles := p.Cycles(&c)
	if cycles != 1000*p.Cost[ClassALU] {
		t.Errorf("cycles %v", cycles)
	}
	// 2.1 GHz: 2100 cycles take 1 µs.
	c[ClassALU] = 0
	c[ClassDivI] = int64(2100 / p.Cost[ClassDivI])
	d := p.Time(&c)
	if d < 900*time.Nanosecond || d > 1100*time.Nanosecond {
		t.Errorf("time %v, want ~1µs", d)
	}
}

func TestClassNames(t *testing.T) {
	seen := map[string]bool{}
	for c := OpClass(0); c < NumClasses; c++ {
		s := c.String()
		if s == "" || s == "opclass(?)" {
			t.Errorf("class %d has no name", c)
		}
		if seen[s] {
			t.Errorf("duplicate class name %s", s)
		}
		seen[s] = true
	}
}
