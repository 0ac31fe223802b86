package compiled

import (
	"fmt"
	"strings"
	"testing"

	"leapsandbounds/internal/core"
	"leapsandbounds/internal/isa"
	"leapsandbounds/internal/mem"
	"leapsandbounds/internal/workloads"
)

// steadyKernels are the benchmark's five steady kernels.
var steadyKernels = []string{"gemm", "atax", "505.mcf", "557.xz", "531.deepsjeng"}

// Causes of a dispatch with which wavm's dispatch count under one
// configuration may differ from another's: elision's loop guards, and
// every other dispatch, which must not differ.
const (
	causeLoopGuard = "loop guard"           // a versioned loop's range check, revalidations included
	causeOther     = "every other dispatch" // must not differ
)

// countDispatches runs kernel at class Bench on wavm under strategy s,
// with elision on or off, and counts its dispatches by cause: the
// account op in front of each loop guard charges a class the compiled
// engines never charge (isa.ClassDispatch) in place of its own.
func countDispatches(t *testing.T, kernel string, s mem.Strategy, elide bool) map[string]int64 {
	t.Helper()
	wl, err := workloads.ByName(kernel)
	if err != nil {
		t.Fatal(err)
	}
	module, native := wl.Build(workloads.Bench)
	eng := NewWAVM()
	eng.SetCache(nil)
	eng.elide = elide
	cm, err := eng.compileModule(module)
	if err != nil {
		t.Fatal(err)
	}
	for _, cf := range cm.accountedFuncs() {
		for pc := 1; pc < len(cf.code); pc += 2 {
			if cf.code[pc].k == kRangeCheck {
				cf.code[pc-1].a, cf.code[pc-1].b = int32(isa.ClassDispatch), -1
			}
		}
	}
	inst, err := cm.instantiate(core.Config{Profile: isa.X86_64(), Strategy: s, CountCycles: true}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	if res, err := inst.Invoke("run"); err != nil || res[0] != native() {
		t.Fatalf("%s under %v, elide=%v: run() = %v, %v", kernel, s, elide, res, err)
	}
	guards := inst.base.CycleCounts[isa.ClassDispatch]
	return map[string]int64{causeLoopGuard: guards, causeOther: inst.dispatches - guards}
}

func sum(counts map[string]int64) (n int64) {
	for _, c := range counts {
		n += c
	}
	return n
}

// TestDispatchesAcrossStrategies holds address folding to being
// codegen and elision to being loop versioning: on the steady kernels
// at class Bench, wavm dispatches exactly as many ops under clamp,
// whose guards fail before they evaluate a plan, as under trap, and
// with elision off it dispatches what trap does less its loop guards —
// within 2 % on every kernel. Under trap, the default, no kernel
// dispatches more than its ceiling, the exact count when elision became
// loop versioning alone.
func TestDispatchesAcrossStrategies(t *testing.T) {
	ceiling := map[string]int64{"gemm": 2321310, "atax": 2401937, "505.mcf": 7832919, "557.xz": 5207746, "531.deepsjeng": 2708536}
	for _, kernel := range steadyKernels {
		trap := countDispatches(t, kernel, mem.Trap, true)
		clamp := countDispatches(t, kernel, mem.Clamp, true)
		off := countDispatches(t, kernel, mem.Trap, false)
		nTrap := sum(trap)
		if nTrap > ceiling[kernel] {
			t.Errorf("%s: %d dispatches under trap, more than the %d ceiling", kernel, nTrap, ceiling[kernel])
		}
		for _, c := range []struct {
			name   string
			counts map[string]int64
			may    string // the one cause that may differ from trap's count
		}{{"clamp", clamp, ""}, {"elide=off", off, causeLoopGuard}} {
			n := sum(c.counts)
			residue := []string{}
			for _, cause := range []string{causeLoopGuard, causeOther} {
				if d := trap[cause] - c.counts[cause]; d != 0 {
					residue = append(residue, fmt.Sprintf("%s %+d", cause, d))
					if cause != c.may {
						t.Errorf("%s: %s dispatches %+d %s than trap", kernel, c.name, -d, cause)
					}
				}
			}
			if len(residue) == 0 {
				residue = append(residue, "none")
			}
			t.Logf("%s: trap %d, %s %d; trap − %s by cause: %s", kernel, nTrap, c.name, n, c.name, strings.Join(residue, ", "))
			if d := float64(n-nTrap) / float64(nTrap); d > 0.02 || d < -0.02 {
				t.Errorf("%s: %s dispatches %d, trap %d (%+.1f %%)", kernel, c.name, n, nTrap, 100*d)
			}
		}
	}
}

// TestWasmtimeDispatches pins what the single-pass engine's optimizer
// buys: wasmtime's exact dispatch count on each steady kernel at class
// Bench under trap may not exceed its ceiling. Before wasmtime ran
// rir.Func.Optimize it ran flatten's stack stream one dispatch per op,
// and dispatched the counts in the comments.
func TestWasmtimeDispatches(t *testing.T) {
	ceiling := map[string]int64{
		"gemm":          9972622,  // 20 504 034 unoptimized
		"atax":          6716514,  // 14 240 594
		"505.mcf":       13137610, // 29 658 095
		"557.xz":        7267113,  // 15 410 260
		"531.deepsjeng": 3640410,  // 8 852 009
	}
	for _, kernel := range steadyKernels {
		n := steadyRunner(t, NewWasmtime, mem.Trap, kernel)(true).dispatches
		t.Logf("%s: %d dispatches", kernel, n)
		if n > ceiling[kernel] {
			t.Errorf("%s: wasmtime dispatches %d, more than the %d ceiling", kernel, n, ceiling[kernel])
		}
	}
}
