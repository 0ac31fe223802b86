package compiled_test

import (
	"testing"

	"leapsandbounds/internal/compiled"
	"leapsandbounds/internal/difftest/family"
	"leapsandbounds/internal/rir"
)

// TestLatchSeedsNestFarExits keeps family.LatchSeeds honest against drift in
// the program generator.
func TestLatchSeedsNestFarExits(t *testing.T) {
	for _, seed := range family.LatchSeeds {
		m, err := family.Program(seed, false, true)
		if err != nil {
			t.Fatal(err)
		}
		_, f, err := compiled.NewWAVM().EmittedIR(m, 0)
		if err != nil {
			t.Fatal(err)
		}
		type latch struct {
			pc, head int
			far      bool // the exit is not the next pc
		}
		var latches []latch
		for pc := range f.Code {
			s := &f.Code[pc]
			if (s.Shape != rir.ShCmpBranch && s.Shape != rir.ShPairBr) || !s.Has(rir.HasElse) {
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
	m, err := family.Program(7, false, false)
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
