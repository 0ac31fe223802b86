package rir

import (
	"slices"

	"leapsandbounds/internal/wasm"
)

// FuseMem is the late fusion pass, run last, after bounds-check
// elision (the name is from when it only knew load+op and op+store;
// the benchmark's probes call it). Over one label scan it
//
//   - threads jumps onto compare+branch headers (threadJumps), which
//     is what turns a loop's back-edge into a latch, and
//   - fuses adjacent producer→consumer pairs into superinstructions
//     executed in one dispatch: the second op is not a label and reads
//     the register the first writes.
//
// A pair is fused only when the emitter has a flat case for it,
// i.e. when fusable[HalfOf(first)][HalfOf(second)]: a fused case that
// dispatches its halves costs more than the dispatch it saves, so there
// is no composed fallback. The fused instruction carries both
// originals in the pairs table (Pair) and the case runs them back
// to back, including the intermediate register write, so fusion is
// observationally identical to the unfused pair — no liveness analysis
// is needed, only adjacency and the guarantee that no branch lands
// between the two (FindLabels includes range-check failure edges).
// Traps inside either half surface exactly as they would unfused. The
// halves' Unchecked / Addr state rides along with them.
//
// Cycle model: load→ALU (ShLoadOp) and ALU→stored value (ShOpStore)
// count as the one memory-class instruction they always did; every
// other pair (ShPair, ShPairBr) charges the classes of both halves, so
// fusing it moves no modelled cycle. It compacts f and returns the
// number of pairs fused.
func (f *Func) FuseMem(sc *Scratch) int {
	ir := f.Code
	labels := f.FindLabels(sc)
	threadJumps(ir, labels)
	fused := 0
	// hs is the half of ir[i]: an op is classified once, as the second
	// of one pair, and carried over as the first of the next.
	var hs Half
	if len(ir) > 0 {
		hs = f.HalfOf(&ir[0])
	}
	for i := 0; i+1 < len(ir); i++ {
		s, t := &ir[i], &ir[i+1]
		ht := f.HalfOf(t)
		if labels[i+1] || !fusable[hs][ht] || !f.consumes(t, s.Dst) {
			hs = ht
			continue
		}
		p := Inst{
			Shape: ShPair,
			Op:    s.Op,
			Class: s.Class,
		}
		// The pair inherits its access half's counting state, including
		// Unchecked, so the profiler's elided/checked attribution
		// survives fusion.
		acc := s
		if t.Has(MemAcc) || t.Has(Unchecked) {
			acc = t
		}
		p.Flags = acc.Flags & (MemAcc | Unchecked)
		switch {
		case t.Shape == ShCmpBranch:
			p.Shape = ShPairBr
			p.Tgt, p.Else = t.Tgt, t.Else
			p.Flags |= t.Flags & HasElse
		case s.Shape == ShLoad:
			p.Shape = ShLoadOp
		case t.Shape == ShStore:
			p.Shape, p.Op, p.Class = ShOpStore, t.Op, t.Class
		}
		p.Side = add(&f.pairs, [2]Inst{*s, *t})
		*s = p
		t.Flags |= Dead
		fused++
		i++
		if i+1 < len(ir) {
			hs = f.HalfOf(&ir[i+1])
		}
	}
	if fused == 0 {
		return 0
	}
	rirFusedLdOp.Add(int64(fused))
	f.Compact(sc)
	return fused
}

// threadJumps replaces a carry-free jump onto a compare+branch by that
// compare with both targets spelled out: where the header's branch
// goes, and the op after the header where it would have fallen
// through. A loop's back-edge onto its compare header is the case
// that pays — one dispatch per iteration instead of two, and the
// induction update before it then fuses into the same dispatch — and in
// a versioned loop the exit is never the next pc (the slow clone sits
// in between), hence the explicit else-target. The new fall-through
// target becomes a label.
func threadJumps(ir []Inst, labels []bool) {
	for i := range ir {
		s := &ir[i]
		if s.Shape != ShJump || s.Side != 0 { // a jump that carries a value stays
			continue
		}
		h := &ir[s.Tgt]
		if h.Shape != ShCmpBranch {
			continue
		}
		els := s.Tgt + 1
		if h.Has(HasElse) {
			els = h.Else
		}
		*s = *h
		s.Flags |= HasElse
		s.Else = els
		labels[els] = true
	}
}

// consumes reports whether t, a consumer half, reads reg: as the
// stored value for a store (no pair feeds a store's address), as any
// operand otherwise.
func (f *Func) consumes(t *Inst, reg int32) bool {
	if t.Shape == ShStore {
		return !t.Has(BImm) && t.B == reg
	}
	hit := false
	f.InstReads(t, func(r int) { hit = hit || r == int(reg) })
	return hit
}

// Half names the flat body of one half of a fused pair. The emitter
// has one inlinable, branch-free body per Half and one case per
// fusable pair of them; what a Half covers is decided here, from the
// instruction alone, so that FuseMem and the emitter cannot disagree.
type Half uint16

const (
	hNone Half = iota
	// HLin: an i32 add/sub/mul/shl that is linear in its slots (LinOf).
	HLin
	// Binary ops outside the linear family; operands are slots or
	// immediates.
	HF64Add
	HF64Sub
	HF64Mul
	HF64Div
	HI64Mul
	HI64Xor
	HI64ShrU
	HI32And
	HI32Eq
	HI32LtS
	HI32RemS // constant non-zero divisor: cannot trap
	// Unary ops, the move and the select.
	HI64ExtendI32S
	HF64ConvertI32S
	HMove
	HSelect
	// Raw loads and the 8-byte store, by width alone: checked or
	// unchecked, with any address form (folded chain, slot, constant).
	// The emitter picks the accessor.
	HLoad64
	HLoad32
	HStore64
	// Integer compare+branches, one target or two: the less-than family
	// (lt/le/gt/ge, signed or unsigned, i32 or i64) and eq/ne.
	HBrLt
	HBrEq

	numHalves = iota
)

// HalfOf classifies s, or returns hNone when no flat half covers it.
func (f *Func) HalfOf(s *Inst) Half {
	switch s.Shape {
	case ShBin:
		switch s.Op {
		case wasm.OpI32Add, wasm.OpI32Sub, wasm.OpI32Mul, wasm.OpI32Shl:
			if _, ok := LinOf(s); ok {
				return HLin
			}
		case wasm.OpF64Add:
			return HF64Add
		case wasm.OpF64Sub:
			return HF64Sub
		case wasm.OpF64Mul:
			return HF64Mul
		case wasm.OpF64Div:
			return HF64Div
		case wasm.OpI64Mul:
			return HI64Mul
		case wasm.OpI64Xor:
			return HI64Xor
		case wasm.OpI64ShrU:
			return HI64ShrU
		case wasm.OpI32And:
			return HI32And
		case wasm.OpI32Eq:
			return HI32Eq
		case wasm.OpI32LtS:
			return HI32LtS
		case wasm.OpI32RemS:
			if s.Has(BImm) && uint32(f.ImmB(s)) != 0 {
				return HI32RemS
			}
		}
	case ShUn:
		switch s.Op {
		case wasm.OpI64ExtendI32S:
			return HI64ExtendI32S
		case wasm.OpF64ConvertI32S:
			return HF64ConvertI32S
		}
	case ShMove:
		return HMove
	case ShSelect:
		return HSelect
	case ShLoad:
		switch s.Op {
		case wasm.OpI64Load, wasm.OpF64Load:
			return HLoad64
		case wasm.OpI32Load, wasm.OpF32Load, wasm.OpI64Load32U:
			return HLoad32
		}
	case ShStore:
		if s.Op == wasm.OpI64Store || s.Op == wasm.OpF64Store {
			return HStore64
		}
	case ShCmpBranch:
		switch s.CmpOp {
		case wasm.OpI32LtS, wasm.OpI32LtU, wasm.OpI32GtS, wasm.OpI32GtU,
			wasm.OpI32LeS, wasm.OpI32LeU, wasm.OpI32GeS, wasm.OpI32GeU,
			wasm.OpI64LtS, wasm.OpI64LtU, wasm.OpI64GtS, wasm.OpI64GtU,
			wasm.OpI64LeS, wasm.OpI64LeU, wasm.OpI64GeS, wasm.OpI64GeU:
			return HBrLt
		case wasm.OpI32Eq, wasm.OpI32Ne, wasm.OpI64Eq, wasm.OpI64Ne:
			return HBrEq
		}
	}
	return hNone
}

// fusablePairs is the flat-case set, each pair as first<<8|second. It
// was chosen from the dynamic frequency of adjacent producer→consumer
// pairs over every registered PolyBench and SPEC kernel (DESIGN.md §13
// has the table): a case body costs compile time and
// instruction-cache space for every module, so a pair is here because
// some kernel spends dispatches on it.
var fusablePairs = []Half{
	// An induction update, a loaded value or a mask into a branch.
	HLin<<8 | HBrLt,
	HLoad64<<8 | HBrLt,
	HI32And<<8 | HBrEq,
	// Index arithmetic the access could not absorb.
	HLin<<8 | HLin,
	HLin<<8 | HLoad64,
	HLoad32<<8 | HLin,
	// A loaded value into f64 arithmetic, f64 arithmetic into the
	// stored value, and f64 expression trees.
	HLoad64<<8 | HF64Add,
	HLoad64<<8 | HF64Sub,
	HLoad64<<8 | HF64Mul,
	HF64Add<<8 | HStore64,
	HF64Sub<<8 | HStore64,
	HF64Mul<<8 | HStore64,
	HF64Div<<8 | HStore64,
	HF64Mul<<8 | HF64Add,
	HF64Mul<<8 | HF64Sub,
	HF64Sub<<8 | HF64Mul,
	HF64Add<<8 | HF64Mul,
	// Integer hashing and predicates (531.deepsjeng, 557.xz).
	HI32Eq<<8 | HI32And,
	HI64Mul<<8 | HI64ShrU,
	HI64ExtendI32S<<8 | HI64Xor,
	HI64Xor<<8 | HMove,
	// The kernels' array initialisers and floyd-warshall's min.
	HI32RemS<<8 | HF64ConvertI32S,
	HI32LtS<<8 | HSelect,
}

// fusable is fusablePairs as the table FuseMem asks once per adjacent
// pair of instructions.
var fusable = func() (t [numHalves][numHalves]bool) {
	for _, k := range fusablePairs {
		t[k>>8][k&0xff] = true
	}
	return t
}()

// Pairs returns the key (first<<8|second) of every fusable pair, for
// the emitter's template test.
func Pairs() []Half { return slices.Clone(fusablePairs) }
