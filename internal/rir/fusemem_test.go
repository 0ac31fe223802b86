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
func countedLoop() []Inst {
	return []Inst{
		{Shape: ShConst, Dst: 0, CarrySrc: -1},
		{Shape: ShCmpBranch, CmpOp: wasm.OpI32GeS, BrOnTrue: true, A: 0, BImm: true, ImmB: 10, Tgt: 5, CarrySrc: -1},
		{Shape: ShBin, Op: wasm.OpI64Mul, Dst: 1, A: 1, BImm: true, ImmB: 3, CarrySrc: -1},
		{Shape: ShBin, Op: wasm.OpI32Add, Dst: 0, A: 0, BImm: true, ImmB: 1, CarrySrc: -1},
		{Shape: ShJump, Tgt: 1, CarrySrc: -1},
		{Shape: ShReturn, CarrySrc: -1},
	}
}

func dump(ir []Inst) string {
	var b strings.Builder
	for i := range ir {
		fmt.Fprintf(&b, "  %4d %s\n", i, ir[i].String(4))
	}
	return b.String()
}

// TestLatch: the back-edge becomes the header's compare with both
// targets, and the induction update before it fuses into the same
// dispatch; the targets follow the compaction.
func TestLatch(t *testing.T) {
	out, fused := FuseMem(countedLoop())
	if fused != 1 || len(out) != 5 {
		t.Fatalf("fused %d pairs into %d ops, want 1 and 5:\n%s", fused, len(out), dump(out))
	}
	l := out[3]
	if l.Shape != ShPairBr || !l.HasElse || l.Tgt != 4 || l.Else != 2 {
		t.Fatalf("latch = %s, want a fused pair to @4 else @2", l.String(4))
	}
	if HalfOf(&l.Pair[0]) != HLin || HalfOf(&l.Pair[1]) != HBrLt || l.Pair[1].CmpOp != wasm.OpI32GeS || !l.Pair[1].BrOnTrue {
		t.Errorf("latch halves: %s", l.String(4))
	}
	if want := "fused{l0 = i32.add l0, #1 ; br @4 if i32.ge_s l0, #10 else @2}"; l.String(4) != want {
		t.Errorf("String() = %q, want %q", l.String(4), want)
	}
	if labels := FindLabels(out); !labels[2] || !labels[4] || labels[3] {
		t.Errorf("labels after fusion: %v", labels)
	}
}

// TestLatchNotFormed: the cases the late pass must leave alone.
func TestLatchNotFormed(t *testing.T) {
	t.Run("carried value", func(t *testing.T) {
		ir := countedLoop()
		ir[4].CarrySrc, ir[4].CarryDst = 5, 6
		out, _ := FuseMem(ir)
		if got := out[4]; got.Shape != ShJump || got.CarrySrc != 5 {
			t.Errorf("a jump that carries a value was rewritten: %s", got.String(4))
		}
	})
	t.Run("header not a compare", func(t *testing.T) {
		ir := countedLoop()
		ir[1] = Inst{Shape: ShIfFalse, A: 0, Tgt: 5, CarrySrc: -1}
		out, fused := FuseMem(ir)
		if fused != 0 || out[4].Shape != ShJump {
			t.Errorf("jump onto %s was threaded:\n%s", ir[1].String(4), dump(out))
		}
	})
	t.Run("jump is a label", func(t *testing.T) {
		// A second way into the back-edge (a continue that skips the
		// update): the jump still becomes the compare, but the update
		// before it must stay its own dispatch.
		ir := countedLoop()
		ir[2] = Inst{Shape: ShCmpBranch, CmpOp: wasm.OpI32Eq, BrOnTrue: true, A: 1, BImm: true, Tgt: 4, CarrySrc: -1}
		out, fused := FuseMem(ir)
		if fused != 0 || len(out) != 6 {
			t.Fatalf("fused %d pairs across a label:\n%s", fused, dump(out))
		}
		if got := out[3]; got.Shape != ShBin || got.Op != wasm.OpI32Add {
			t.Errorf("the update was consumed: %s", got.String(4))
		}
		if got := out[4]; got.Shape != ShCmpBranch || !got.HasElse || got.Tgt != 5 || got.Else != 2 {
			t.Errorf("back-edge = %s, want the header's compare to @5 else @2", got.String(4))
		}
	})
}

// TestThreadedJumpOntoLatch: a jump onto a branch that already has two
// targets takes both of them, not the pc after it.
func TestThreadedJumpOntoLatch(t *testing.T) {
	ir := []Inst{
		{Shape: ShCmpBranch, CmpOp: wasm.OpI32LtU, BrOnTrue: true, A: 0, B: 1, Tgt: 3, HasElse: true, Else: 2, CarrySrc: -1},
		{Shape: ShJump, Tgt: 0, CarrySrc: -1},
		{Shape: ShReturn, CarrySrc: -1},
		{Shape: ShReturn, CarrySrc: -1},
	}
	out, _ := FuseMem(ir)
	if got := out[1]; got.Shape != ShCmpBranch || got.Tgt != 3 || got.Else != 2 {
		t.Errorf("threaded jump = %s, want @3 else @2", got.String(4))
	}
}

// TestFuseNeedsConsumer: adjacency is not enough — the second op must
// read what the first wrote, as the stored value in the case of a
// store, and no pair forms without a flat closure for it.
func TestFuseNeedsConsumer(t *testing.T) {
	add := Inst{Shape: ShBin, Op: wasm.OpF64Add, Dst: 5, A: 1, B: 2, CarrySrc: -1}
	store := Inst{Shape: ShStore, Op: wasm.OpF64Store, A: 3, B: 5, Unchecked: true, CarrySrc: -1}
	for _, tc := range []struct {
		name   string
		second Inst
		want   Shape
	}{
		{"stored value", store, ShOpStore},
		{"store of another register", func() Inst { s := store; s.B = 6; return s }(), ShBin},
		{"store addressed by the result", func() Inst { s := store; s.A, s.B = 5, 6; return s }(), ShBin},
		{"checked store", func() Inst { s := store; s.Unchecked = false; return s }(), ShBin},
		{"no closure for f64.add ; f64.div", Inst{Shape: ShBin, Op: wasm.OpF64Div, Dst: 6, A: 5, B: 2, CarrySrc: -1}, ShBin},
	} {
		out, _ := FuseMem([]Inst{add, tc.second, {Shape: ShReturn, CarrySrc: -1}})
		if out[0].Shape != tc.want {
			t.Errorf("%s: first op became %s", tc.name, out[0].String(4))
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
		s := Inst{Shape: ShBin, Op: ops[r.Intn(len(ops))], Dst: self, A: r.Intn(4), B: r.Intn(4)}
		switch r.Intn(3) {
		case 0:
			s.AImm, s.ImmA = true, uint64(r.Uint32())
		case 1:
			s.BImm, s.ImmB = true, uint64(r.Uint32())
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
			if s.AImm {
				a = s.ImmA
			}
			if s.BImm {
				b = s.ImmB
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
		{Shape: ShBin, Op: wasm.OpI32Shl, AImm: true, ImmA: 1, B: 1},
		{Shape: ShBin, Op: wasm.OpI32And, A: 0, BImm: true, ImmB: 7},
		{Shape: ShBin, Op: wasm.OpI64Add, A: 0, B: 1},
	} {
		if l, ok := LinOf(&s); ok {
			t.Errorf("%s has linear form %+v", s.String(4), l)
		}
	}
	sum, _ := LinOf(&Inst{Shape: ShBin, Op: wasm.OpI32Add, A: 0, B: 1})
	if l, ok := sum.Then(&Inst{Shape: ShBin, Op: wasm.OpI32Add, A: self, B: 2}, self); ok {
		t.Errorf("a sum over three registers has linear form %+v", l)
	}
}
