package rir

import (
	"reflect"
	"slices"
	"testing"

	"leapsandbounds/internal/flatten"
)

// TestCompactInPlace: Compact shortens the slice it is handed and
// remaps every kind of target — plain branches, both edges of a
// two-target branch and of a fused pair that ends in one, range-check
// failure edges, br_table entries, and a target that was itself dropped
// or is the end of the stream — while a shallow copy of the same IR taken
// beforehand (what the compiled engines retain as preIR) keeps its
// instructions and, above all, its branch tables, which the two
// copies share until Compact replaces the working copy's.
func TestCompactInPlace(t *testing.T) {
	const (
		entry = iota
		deadA // dropped: targets past it move up by one
		check
		table
		deadB // dropped, and a branch target: lands on what follows
		body
		deadC
		jump
		latch // two-target compare+branch: back to body, out to ret
		pair  // fused pair ending in one, targets on the pair
		ret
		n
	)
	retained := make([]Inst, n)
	retained[entry] = Inst{Shape: ShCmpBranch, Tgt: deadB}
	retained[deadA] = Inst{Shape: ShNop, Dead: true}
	retained[check] = Inst{Shape: ShRangeCheck, Tgt: jump, Chk: &CheckPlan{BaseSlot: 3}}
	retained[table] = Inst{Shape: ShBrTable, Table: []flatten.BranchTarget{
		{Tgt: body, PopTo: 5, Arity: 1}, {Tgt: ret}, {Tgt: n}, {Tgt: entry}}}
	retained[deadB] = Inst{Shape: ShNop, Dead: true}
	retained[body] = Inst{Shape: ShConst, Dst: 7, ImmA: 42}
	retained[deadC] = Inst{Shape: ShMove, Dead: true}
	retained[jump] = Inst{Shape: ShJump, Tgt: check, CarrySrc: -1}
	retained[latch] = Inst{Shape: ShCmpBranch, Tgt: ret, HasElse: true, Else: body}
	retained[pair] = Inst{Shape: ShPairBr, Tgt: body, HasElse: true, Else: n,
		Pair: []Inst{{Shape: ShBin}, {Shape: ShCmpBranch, Tgt: 99, HasElse: true, Else: 98}}}
	retained[ret] = Inst{Shape: ShReturn}

	want := func() []Inst { // retained, as built above
		w := slices.Clone(retained)
		w[table].Table = slices.Clone(retained[table].Table)
		return w
	}()

	work := slices.Clone(retained)
	out := Compact(work)

	if len(out) != n-3 || &out[0] != &work[0] {
		t.Fatalf("Compact returned %d ops at %p, want %d in place at %p", len(out), &out[0], n-3, &work[0])
	}
	for _, s := range out {
		if s.Dead {
			t.Errorf("dead op survived: %+v", s)
		}
	}
	// New positions: entry 0, check 1, table 2, body 3, jump 4, latch 5,
	// pair 6, ret 7.
	if got := out[0].Tgt; got != 3 {
		t.Errorf("cmp+branch to a dropped op: target %d, want 3 (the op after it)", got)
	}
	if got := out[1].Tgt; got != 4 || out[1].Chk != retained[check].Chk {
		t.Errorf("range check: target %d plan %p, want 4 and the same plan", got, out[1].Chk)
	}
	wantTable := []flatten.BranchTarget{{Tgt: 3, PopTo: 5, Arity: 1}, {Tgt: 7}, {Tgt: 8}, {Tgt: 0}}
	if !reflect.DeepEqual(out[2].Table, wantTable) {
		t.Errorf("br_table %+v, want %+v", out[2].Table, wantTable)
	}
	if out[3].Dst != 7 || out[3].ImmA != 42 {
		t.Errorf("moved op lost its operands: %+v", out[3])
	}
	if got := out[4].Tgt; got != 1 {
		t.Errorf("backward jump: target %d, want 1", got)
	}
	if l := out[5]; l.Tgt != 7 || !l.HasElse || l.Else != 3 {
		t.Errorf("two-target branch: @%d else @%d, want @7 else @3", l.Tgt, l.Else)
	}
	if p := out[6]; p.Tgt != 3 || p.Else != 8 || p.Pair[1].Tgt != 99 || p.Pair[1].Else != 98 {
		t.Errorf("fused pair: @%d else @%d (half @%d else @%d), want @3 else @8 and the half untouched",
			p.Tgt, p.Else, p.Pair[1].Tgt, p.Pair[1].Else)
	}
	labels := FindLabels(out)
	for pc, want := range []bool{true, true, false, true, true, false, false, true} {
		if labels[pc] != want {
			t.Errorf("FindLabels[%d] = %v, want %v", pc, labels[pc], want)
		}
	}
	if !reflect.DeepEqual(retained, want) {
		t.Errorf("the retained copy changed:\n got %+v\nwant %+v", retained, want)
	}
}

// TestCompactNothingDead: the common case on the single-pass engine's
// short functions is a no-op that keeps the slice.
func TestCompactNothingDead(t *testing.T) {
	ir := []Inst{{Shape: ShJump, Tgt: 1, CarrySrc: -1}, {Shape: ShReturn}}
	out := Compact(ir)
	if len(out) != 2 || &out[0] != &ir[0] || out[0].Tgt != 1 {
		t.Errorf("got %+v", out)
	}
	if out := Compact(nil); len(out) != 0 {
		t.Errorf("Compact(nil) = %+v", out)
	}
}
