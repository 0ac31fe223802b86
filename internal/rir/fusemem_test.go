package rir

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"leapsandbounds/internal/wasm"
)

// A counted loop as Optimize leaves it: header compare, body, induction
// update forwarded into its local, back-edge.
//
//	0: l0 = const 0
//	1: br @5 if i32.ge_s l0, #10      header, exit at 5
//	2: l1 = i64.mul l1, #3            body
//	3: l0 = i32.add l0, #1
//	4: jump @1
//	5: return
func countedLoop() *Func {
	return &Func{NumLocals: 4, Code: []Inst{
		{Shape: ShConst, Dst: 0},
		{Shape: ShCmpBranch, CmpOp: wasm.OpI32GeS, Flags: BrOnTrue | BImm, A: 0, Imm: 10, Tgt: 5},
		{Shape: ShBin, Op: wasm.OpI64Mul, Dst: 1, A: 1, Flags: BImm, Imm: 3},
		{Shape: ShBin, Op: wasm.OpI32Add, Dst: 0, A: 0, Flags: BImm, Imm: 1},
		{Shape: ShJump, Tgt: 1},
		{Shape: ShReturn},
	}}
}

func dump(f *Func) string {
	var b strings.Builder
	for i := range f.Code {
		fmt.Fprintf(&b, "  %4d %s\n", i, f.Code[i].String(f))
	}
	return b.String()
}

// TestLatch: the back-edge becomes the header's compare with both
// targets, and the induction update before it fuses into the same
// dispatch; the targets follow the compaction.
func TestLatch(t *testing.T) {
	f := countedLoop()
	fused := f.FuseMem(nil)
	if out := f.Code; fused != 1 || len(out) != 5 {
		t.Fatalf("fused %d pairs into %d ops, want 1 and 5:\n%s", fused, len(out), dump(f))
	}
	l := &f.Code[3]
	if l.Shape != ShPairBr || !l.Has(HasElse) || l.Tgt != 4 || l.Else != 2 {
		t.Fatalf("latch = %s, want a fused pair to @4 else @2", l.String(f))
	}
	if p := f.Pair(l); f.HalfOf(&p[0]) != HLin || f.HalfOf(&p[1]) != HBrLt || p[1].CmpOp != wasm.OpI32GeS || !p[1].Has(BrOnTrue) {
		t.Errorf("latch halves: %s", l.String(f))
	}
	if want := "fused{l0 = i32.add l0, #1 {alu} ; br @4 if i32.ge_s l0, #10 else @2 {alu}} {alu}"; l.String(f) != want {
		t.Errorf("String() = %q, want %q", l.String(f), want)
	}
	if labels := f.FindLabels(nil); !labels[2] || !labels[4] || labels[3] {
		t.Errorf("labels after fusion: %v", labels)
	}
}

// TestLatchNotFormed: the cases the late pass must leave alone.
func TestLatchNotFormed(t *testing.T) {
	t.Run("carried value", func(t *testing.T) {
		f := countedLoop()
		f.SetCarry(&f.Code[4], 5, 6)
		f.FuseMem(nil)
		if got := &f.Code[4]; got.Shape != ShJump {
			t.Errorf("a jump that carries a value was rewritten: %s", got.String(f))
		} else if src, dst := f.Carry(got); src != 5 || dst != 6 {
			t.Errorf("the jump's carry became %d -> %d", src, dst)
		}
	})
	t.Run("header not a compare", func(t *testing.T) {
		f := countedLoop()
		f.Code[1] = Inst{Shape: ShIfFalse, A: 0, Tgt: 5}
		if fused := f.FuseMem(nil); fused != 0 || f.Code[4].Shape != ShJump {
			t.Errorf("jump onto %s was threaded:\n%s", f.Code[1].String(f), dump(f))
		}
	})
	t.Run("jump is a label", func(t *testing.T) {
		// A second way into the back-edge (a continue that skips the
		// update): the jump still becomes the compare, but the update
		// before it must stay its own dispatch.
		f := countedLoop()
		f.Code[2] = Inst{Shape: ShCmpBranch, CmpOp: wasm.OpI32Eq, Flags: BrOnTrue | BImm, A: 1, Tgt: 4}
		if fused := f.FuseMem(nil); fused != 0 || len(f.Code) != 6 {
			t.Fatalf("fused %d pairs across a label:\n%s", fused, dump(f))
		}
		if got := &f.Code[3]; got.Shape != ShBin || got.Op != wasm.OpI32Add {
			t.Errorf("the update was consumed: %s", got.String(f))
		}
		if got := &f.Code[4]; got.Shape != ShCmpBranch || !got.Has(HasElse) || got.Tgt != 5 || got.Else != 2 {
			t.Errorf("back-edge = %s, want the header's compare to @5 else @2", got.String(f))
		}
	})
}

// TestThreadedJumpOntoLatch: a jump onto a branch that already has two
// targets takes both of them, not the pc after it.
func TestThreadedJumpOntoLatch(t *testing.T) {
	f := &Func{NumLocals: 4, Code: []Inst{
		{Shape: ShCmpBranch, CmpOp: wasm.OpI32LtU, Flags: BrOnTrue | HasElse, A: 0, B: 1, Tgt: 3, Else: 2},
		{Shape: ShJump, Tgt: 0},
		{Shape: ShReturn},
		{Shape: ShReturn},
	}}
	f.FuseMem(nil)
	if got := &f.Code[1]; got.Shape != ShCmpBranch || got.Tgt != 3 || got.Else != 2 {
		t.Errorf("threaded jump = %s, want @3 else @2", got.String(f))
	}
}

// TestFuseNeedsConsumer: adjacency is not enough — the second op must
// read what the first wrote, as the stored value in the case of a
// store, and no pair forms without a flat case for it.
func TestFuseNeedsConsumer(t *testing.T) {
	add := Inst{Shape: ShBin, Op: wasm.OpF64Add, Dst: 5, A: 1, B: 2}
	store := Inst{Shape: ShStore, Op: wasm.OpF64Store, A: 3, B: 5, Flags: Unchecked}
	for _, tc := range []struct {
		name   string
		second Inst
		want   Shape
	}{
		{"stored value", store, ShOpStore},
		{"store of another register", func() Inst { s := store; s.B = 6; return s }(), ShBin},
		{"store addressed by the result", func() Inst { s := store; s.A, s.B = 5, 6; return s }(), ShBin},
		{"checked store", func() Inst { s := store; s.Flags = MemAcc; return s }(), ShOpStore},
		{"no case for f64.add ; f64.div", Inst{Shape: ShBin, Op: wasm.OpF64Div, Dst: 6, A: 5, B: 2}, ShBin},
	} {
		f := &Func{NumLocals: 4, Code: []Inst{add, tc.second, {Shape: ShReturn}}}
		if f.FuseMem(nil); f.Code[0].Shape != tc.want {
			t.Errorf("%s: first op became %s", tc.name, f.Code[0].String(f))
		}
	}
}

// TestLinMatchesOps: a linear form evaluates to what the ops it was
// built from compute, singly and chained through one register, for
// every operand form; a product or shift of two registers and a sum
// over three have none.
func TestLinMatchesOps(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	const self = 3
	ops := []wasm.Opcode{wasm.OpI32Add, wasm.OpI32Sub, wasm.OpI32Mul, wasm.OpI32Shl}
	randOp := func() Inst {
		s := Inst{Shape: ShBin, Op: ops[r.Intn(len(ops))], Dst: self, A: int32(r.Intn(4)), B: int32(r.Intn(4))}
		switch r.Intn(3) {
		case 0:
			s.Flags, s.Imm = AImm, uint64(r.Uint32())
		case 1:
			s.Flags, s.Imm = BImm, uint64(r.Uint32())
		}
		return s
	}
	linear, chains := 0, 0
	for round := 0; round < 5000; round++ {
		st := []uint64{uint64(r.Uint32()), uint64(r.Uint32()), uint64(r.Uint32()), uint64(r.Uint32())}
		chain := []Inst{randOp(), randOp(), randOp()}[:1+r.Intn(3)]
		cur, ok := LinSlot(self), true
		for i := 0; ok && i < len(chain); i++ {
			cur, ok = cur.Then(&chain[i], self)
		}
		if !ok {
			continue
		}
		linear++
		if len(chain) > 1 {
			chains++
		}
		want := append([]uint64(nil), st...)
		for _, s := range chain {
			a, b := want[s.A], want[s.B]
			if s.Has(AImm) {
				a = s.Imm
			}
			if s.Has(BImm) {
				b = s.Imm
			}
			want[self] = BinOps[s.Op](a, b)
		}
		if got := uint64(cur.Eval(st, 0)); got != want[self] {
			t.Fatalf("chain %v on %v: linear form %+v gives %#x, the ops give %#x", chain, st, cur, got, want[self])
		}
	}
	if linear < 1000 || chains < 300 {
		t.Errorf("only %d linear cases (%d chains) of 5000", linear, chains)
	}
	for _, s := range []Inst{
		{Shape: ShBin, Op: wasm.OpI32Mul, A: 0, B: 1},
		{Shape: ShBin, Op: wasm.OpI32Shl, Flags: AImm, Imm: 1, B: 1},
		{Shape: ShBin, Op: wasm.OpI32And, A: 0, Flags: BImm, Imm: 7},
		{Shape: ShBin, Op: wasm.OpI64Add, A: 0, B: 1},
	} {
		if l, ok := LinOf(&s); ok {
			t.Errorf("%s has linear form %+v", s.String(&Func{NumLocals: 4}), l)
		}
	}
	sum, _ := LinOf(&Inst{Shape: ShBin, Op: wasm.OpI32Add, A: 0, B: 1})
	if l, ok := sum.Then(&Inst{Shape: ShBin, Op: wasm.OpI32Add, A: self, B: 2}, self); ok {
		t.Errorf("a sum over three registers has linear form %+v", l)
	}
}
