package rir

import (
	"reflect"
	"slices"
	"testing"

	"leapsandbounds/internal/flatten"
)

// with returns a Func whose ops are code and whose cold tables are
// f's: what it appends to a table lies past f's length, so f never
// sees it.
func with(f *Func, code []Inst) *Func {
	c := *f
	c.Code = code
	return &c
}

// deepCopy copies f's ops and every cold table, branch tables' targets
// included, so that nothing it returns shares memory with f.
func deepCopy(f *Func) *Func {
	c := with(f, slices.Clone(f.Code))
	c.cold = cold{
		slices.Clone(f.carries), slices.Clone(f.calls), slices.Clone(f.tables), slices.Clone(f.cs),
		slices.Clone(f.immBs), slices.Clone(f.addrs), slices.Clone(f.checks), slices.Clone(f.pairs),
	}
	for i := range c.tables {
		c.tables[i].Targets = slices.Clone(c.tables[i].Targets)
	}
	return c
}

// TestCompactInPlace: Compact shortens the ops it is handed and remaps
// every kind of target — plain branches, both edges of a two-target
// branch and of a fused pair that ends in one, range-check failure
// edges, br_table entries, and a target that was itself dropped or is
// the end of the stream — while a copy of the same function taken
// beforehand (its own ops, the same cold tables, as versioning's fast
// and slow copies of an op share its entry) keeps its ops and, above
// all, its branch tables, which Compact gives the working copy fresh
// rather than rewriting the shared ones.
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
	retained := &Func{Code: make([]Inst, n)}
	c := retained.Code
	c[entry] = Inst{Shape: ShCmpBranch, Tgt: deadB}
	c[deadA] = Inst{Shape: ShNop, Flags: Dead}
	c[check] = Inst{Shape: ShRangeCheck, Tgt: jump}
	retained.SetCheck(&c[check], CheckPlan{Ranges: []LoopRange{{Addr: LinSlot(3), Width: 8}}})
	c[table] = Inst{Shape: ShBrTable}
	retained.SetTable(&c[table], BrTable{Targets: []flatten.BranchTarget{
		{Tgt: body, PopTo: 5, Arity: 1}, {Tgt: ret}, {Tgt: n}, {Tgt: entry}}})
	c[deadB] = Inst{Shape: ShNop, Flags: Dead}
	c[body] = Inst{Shape: ShConst, Dst: 7, Imm: 42}
	c[deadC] = Inst{Shape: ShMove, Flags: Dead}
	c[jump] = Inst{Shape: ShJump, Tgt: check}
	c[latch] = Inst{Shape: ShCmpBranch, Tgt: ret, Flags: HasElse, Else: body}
	c[pair] = Inst{Shape: ShPairBr, Tgt: body, Flags: HasElse, Else: n}
	c[pair].Side = add(&retained.pairs, [2]Inst{{Shape: ShBin}, {Shape: ShCmpBranch, Tgt: 99, Flags: HasElse, Else: 98}})
	c[ret] = Inst{Shape: ShReturn}

	want := deepCopy(retained)

	ops := slices.Clone(retained.Code)
	work := with(retained, ops)
	work.Compact(nil)
	out := work.Code

	if len(out) != n-3 || &out[0] != &ops[0] {
		t.Fatalf("Compact left %d ops at %p, want %d in place at %p", len(out), &out[0], n-3, &ops[0])
	}
	for _, s := range out {
		if s.Has(Dead) {
			t.Errorf("dead op survived: %+v", s)
		}
	}
	// New positions: entry 0, check 1, table 2, body 3, jump 4, latch 5,
	// pair 6, ret 7.
	if got := out[0].Tgt; got != 3 {
		t.Errorf("cmp+branch to a dropped op: target %d, want 3 (the op after it)", got)
	}
	if got := out[1].Tgt; got != 4 || work.Check(&out[1]) != retained.Check(&c[check]) {
		t.Errorf("range check: target %d plan %p, want 4 and the same plan", got, work.Check(&out[1]))
	}
	wantTable := []flatten.BranchTarget{{Tgt: 3, PopTo: 5, Arity: 1}, {Tgt: 7}, {Tgt: 8}, {Tgt: 0}}
	if got := work.Table(&out[2]).Targets; !reflect.DeepEqual(got, wantTable) {
		t.Errorf("br_table %+v, want %+v", got, wantTable)
	}
	if out[3].Dst != 7 || out[3].Imm != 42 {
		t.Errorf("moved op lost its operands: %+v", out[3])
	}
	if got := out[4].Tgt; got != 1 {
		t.Errorf("backward jump: target %d, want 1", got)
	}
	if l := out[5]; l.Tgt != 7 || !l.Has(HasElse) || l.Else != 3 {
		t.Errorf("two-target branch: @%d else @%d, want @7 else @3", l.Tgt, l.Else)
	}
	if p := out[6]; p.Tgt != 3 || p.Else != 8 || work.Pair(&p)[1].Tgt != 99 || work.Pair(&p)[1].Else != 98 {
		t.Errorf("fused pair: @%d else @%d (half @%d else @%d), want @3 else @8 and the half untouched",
			p.Tgt, p.Else, work.Pair(&p)[1].Tgt, work.Pair(&p)[1].Else)
	}
	labels := work.FindLabels(nil)
	for pc, want := range []bool{true, true, false, true, true, false, false, true} {
		if labels[pc] != want {
			t.Errorf("FindLabels[%d] = %v, want %v", pc, labels[pc], want)
		}
	}
	if !reflect.DeepEqual(retained, want) {
		t.Errorf("the retained copy changed:\n got %+v\nwant %+v", retained, want)
	}
}

// TestCompactNothingDead: the common case on short functions with
// nothing to fold is a no-op that keeps the ops.
func TestCompactNothingDead(t *testing.T) {
	f := &Func{Code: []Inst{{Shape: ShJump, Tgt: 1}, {Shape: ShReturn}}}
	ops := f.Code
	f.Compact(nil)
	if len(f.Code) != 2 || &f.Code[0] != &ops[0] || f.Code[0].Tgt != 1 {
		t.Errorf("got %+v", f.Code)
	}
	empty := &Func{}
	if empty.Compact(nil); len(empty.Code) != 0 {
		t.Errorf("Compact of no ops = %+v", empty.Code)
	}
}
