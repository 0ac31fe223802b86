package compiled_test

import (
	"errors"
	"fmt"
	"testing"

	"leapsandbounds/internal/compiled"
	"leapsandbounds/internal/core"
	"leapsandbounds/internal/isa"
	"leapsandbounds/internal/mem"
	"leapsandbounds/internal/rir"
	"leapsandbounds/internal/trap"
	"leapsandbounds/internal/wasm"
)

// runRIR compiles m on a fresh cache-detached wavm engine with the
// register-IR tier on or off (elision stays on, its default, so the
// comparison covers the lowered-then-elided pipeline) and executes
// run() under s.
func runRIR(tb testing.TB, m *wasm.Module, s mem.Strategy, rirOn bool) elideOutcome {
	tb.Helper()
	eng := compiled.NewWAVM()
	eng.SetCache(nil)
	eng.SetCodegen(core.Codegen{BoundsElision: true, RegisterIR: rirOn})
	cm, err := eng.Compile(m)
	if err != nil {
		tb.Fatalf("rir=%v: %v", rirOn, err)
	}
	inst, err := cm.Instantiate(core.Config{Profile: isa.X86_64(), Strategy: s}, nil)
	if err != nil {
		tb.Fatalf("rir=%v/%v: %v", rirOn, s, err)
	}
	res, ierr := inst.Invoke("run")
	inst.Close()
	if ierr != nil {
		var tr *trap.Trap
		if !errors.As(ierr, &tr) {
			tb.Fatalf("rir=%v/%v: non-trap failure: %v", rirOn, s, ierr)
		}
		return elideOutcome{trapped: true, kind: tr.Kind, detail: tr.Detail}
	}
	return elideOutcome{digest: res[0]}
}

// checkRIREquivalence runs m with the register tier off and on under
// all five strategies and requires bit-identical outcomes: the same
// digest when the run completes, and the same trap kind and detail
// (faulting address + access size) when it doesn't. The detail
// comparison pins trap sites: a lowering bug that renumbered an
// address operand, or a fusion that skipped the intermediate register
// write, would fault at a different address or produce a different
// digest.
func checkRIREquivalence(tb testing.TB, m *wasm.Module) {
	tb.Helper()
	for _, s := range mem.Strategies() {
		off := runRIR(tb, m, s, false)
		on := runRIR(tb, m, s, true)
		if off != on {
			tb.Errorf("%v: rir=off %+v, rir=on %+v", s, off, on)
		}
	}
}

// TestDifferentialRIR is the register tier's equivalence net: every
// generated program — the in-bounds random kernels and the boundary-
// straddling OOB variants — must behave identically with lowering on
// and off under all five strategies.
func TestDifferentialRIR(t *testing.T) {
	seeds := 25
	if testing.Short() {
		seeds = 5
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("random/seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			m, err := buildRandomProgram(seed)
			if err != nil {
				t.Fatalf("generator produced invalid module: %v", err)
			}
			checkRIREquivalence(t, m)
		})
		t.Run(fmt.Sprintf("oob/seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			m, err := buildOOBProgram(seed)
			if err != nil {
				t.Fatalf("generator produced invalid module: %v", err)
			}
			checkRIREquivalence(t, m)
		})
	}
}

// FuzzRIRDiff drives the same equivalence check from the fuzzer: the
// seed picks the generated program, the flag picks the in-bounds or
// boundary-straddling generator.
func FuzzRIRDiff(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(seed, false)
		f.Add(seed, true)
	}
	for _, seed := range latchSeeds {
		f.Add(seed, false)
		f.Add(seed, true)
	}
	f.Fuzz(func(t *testing.T, seed int64, oob bool) {
		build := buildRandomProgram
		if oob {
			build = buildOOBProgram
		}
		m, err := build(seed)
		if err != nil {
			t.Skip() // generator rejects some degenerate seeds
		}
		checkRIREquivalence(t, m)
	})
}

// latchSeeds generate programs with nested counted loops that elision
// versions, so their back-edges become two-target latches whose exit is
// not the next pc (the slow clone sits in between), inside an outer
// loop that has a latch of its own: the shape the late pass's jump threading and
// the second branch target exist for.
var latchSeeds = []int64{29, 62}

// TestLatchSeedsNestFarExits keeps latchSeeds honest against drift in
// the program generator.
func TestLatchSeedsNestFarExits(t *testing.T) {
	for _, seed := range latchSeeds {
		m, err := buildRandomProgram(seed)
		if err != nil {
			t.Fatal(err)
		}
		_, ir, _, err := compiled.NewWAVM().EmittedIR(m, 0)
		if err != nil {
			t.Fatal(err)
		}
		type latch struct {
			pc, head int
			far      bool // the exit is not the next pc
		}
		var latches []latch
		for pc := range ir {
			s := &ir[pc]
			if (s.Shape != rir.ShCmpBranch && s.Shape != rir.ShPairBr) || !s.HasElse {
				continue
			}
			head, exit := int(s.Else), int(s.Tgt)
			if head > pc {
				head, exit = exit, head
			}
			if head <= pc {
				latches = append(latches, latch{pc, head, exit != pc+1})
			}
		}
		nested := 0
		for _, o := range latches {
			for _, i := range latches {
				if i.far && o.head < i.head && i.pc < o.pc {
					nested++
				}
			}
		}
		if nested == 0 {
			t.Errorf("seed %d: %d latches, none with a far exit nested in another's loop", seed, len(latches))
		}
	}
}

// TestRIRLoweringShrinksOps pins the tier's reason to exist: for a
// loop-heavy kernel the lowered op stream must be strictly shorter
// than the stack-shaped input, registers must be allocated, and at
// least one superinstruction must form. Counter deltas are measured
// around one uncached compile.
func TestRIRLoweringShrinksOps(t *testing.T) {
	m, err := buildRandomProgram(7)
	if err != nil {
		t.Fatal(err)
	}
	before := rir.Stats()
	eng := compiled.NewWAVM()
	eng.SetCache(nil)
	if _, err := eng.Compile(m); err != nil {
		t.Fatal(err)
	}
	after := rir.Stats()
	opsIn := after.OpsIn - before.OpsIn
	opsOut := after.OpsOut - before.OpsOut
	regs := after.RegsAllocated - before.RegsAllocated
	if opsIn == 0 {
		t.Fatal("lowering pipeline did not run (ops_in delta is zero)")
	}
	if opsOut >= opsIn {
		t.Errorf("lowering did not shrink the op stream: ops_in=%d ops_out=%d", opsIn, opsOut)
	}
	if regs == 0 {
		t.Error("no virtual registers allocated")
	}
	fused := (after.FusedCmpBr - before.FusedCmpBr) + (after.FusedLdOp - before.FusedLdOp)
	if fused == 0 {
		t.Error("no superinstructions fused")
	}
	t.Logf("ops_in=%d ops_out=%d regs=%d fused_cmpbr=%d fused_ldop=%d",
		opsIn, opsOut, regs,
		after.FusedCmpBr-before.FusedCmpBr, after.FusedLdOp-before.FusedLdOp)
}
