package compiled

import (
	"fmt"
	"slices"

	"leapsandbounds/internal/flatten"
	"leapsandbounds/internal/prof"
	"leapsandbounds/internal/rir"
	"leapsandbounds/internal/wasm"
)

// op is one executed operation: the case of the run loop's switch that
// runs it (k) and its operands, chosen once per rir.Inst at compile
// time. It holds no pointer, so a function's stream is nothing the
// collector scans. What a field means depends on the kind:
//
//	x, y  operands A and B of an ALU op, a compare or a stored value
//	imm   a constant; an access's static offset; a compare's sign flip;
//	      a call's function or type index; a global's index
//	l     an access's address, or an i32 linear op's form
//	a, b  operand slots; a call's b is the last slot of its window
//	c     a select's condition or memory.copy/fill's length slot; else
//	      the op's entry in its function's pairs, tables or checks
//	d     the slot the op writes; a call's argument base; a carry's
//	      destination
//	t, e  branch targets: taken, and not taken
//	wop   the opcode a generic case looks its function up by; a pair's
//	      rir.Shape
//	cls   the rir.Inst's isa.OpClass, fl its flags (MemAcc, Unchecked)
//
// A field an op does not use is zero, so a slot field always names a
// slot of the frame, which prove checks.
type op struct {
	x, y opd
	imm  uint64
	l    lin
	a, b int32
	c, d int32
	t, e int32
	k    kind
	wop  uint8
	cls  uint8
	fl   rir.Flags
}

// opd is an operand read branch-free: the slot's value under m, or the
// constant k — m all ones (or a compare's width mask) for a slot, zero
// for an immediate, whose slot field is 0.
type opd struct{ k, m uint64 }

// lin is rir.Lin over frame slots: uint32(fr[x])*cx + uint32(fr[y])*cy + k.
// An unused term reads slot x or 0 with coefficient zero.
type lin struct {
	x, y   int32
	cx, cy uint32
	k      uint32
}

func linOf(l rir.Lin) lin {
	return lin{x: int32(l.X), y: int32(l.Y), cx: l.CX, cy: l.CY, k: l.K}
}

// kind is an op's case in the run loop. A choice made here at compile
// time is one the run loop never makes: operand forms, the hottest
// opcodes, checked or unchecked access, and the pair.
type kind uint8

const (
	kNop kind = iota
	kConst
	kMove
	kUn       // d = rir.UnOps[wop](a)
	kTruncSat // d = truncSat[wop](a)
	kBin      // d = rir.BinOps[wop](x, y), any operand form
	kI32Add   // the hottest binary ops over two slots
	kI32Sub
	kI32Mul
	kF64Add
	kF64Sub
	kF64Mul
	kF64Div
	kI32AddK // and over a slot and a constant
	kI32MulK
	kI32ShlK
	kSelect

	// Loads and stores at l + imm: mem's checked accessor, or the
	// unchecked one where a range check proved the access in bounds. A
	// 4- or 8-byte access from one slot plus the offset has its own case.
	// The unchecked cases follow the checked ones in the same order:
	// loadOf and storeOf add the distance.
	kLoad32
	kLoad64
	kLoad8S32
	kLoad8U
	kLoad16S32
	kLoad16U
	kLoad8S64
	kLoad16S64
	kLoad32S64
	kLoad32Slot
	kLoad64Slot
	kLoad32Unchecked
	kLoad64Unchecked
	kLoad8S32Unchecked
	kLoad8UUnchecked
	kLoad16S32Unchecked
	kLoad16UUnchecked
	kLoad8S64Unchecked
	kLoad16S64Unchecked
	kLoad32S64Unchecked
	kLoad32SlotUnchecked
	kLoad64SlotUnchecked
	kStore8 // value y
	kStore16
	kStore32
	kStore64
	kStore32Slot // value slot b
	kStore64Slot
	kStore8Unchecked
	kStore16Unchecked
	kStore32Unchecked
	kStore64Unchecked
	kStore32SlotUnchecked
	kStore64SlotUnchecked

	kRangeCheck // checks[c]; to t when it fails
	kJump
	kJumpCarry // fr[d] = fr[a] on the way
	kIfFalse
	kBranchIf
	kBranchIfCarry
	kBrLt     // (x^imm) < (y^imm): the less-than family, any width and sign
	kBrLtI32S // int32(fr[a]) < int32(fr[b])
	kBrLtI32SK
	kBrEq  // x == y: eq/ne at either width
	kBrCmp // rir.BinOps[wop](x, y) != 0
	kBrTable
	kReturn
	kReturnCarry // fr[0] = fr[a]
	kUnreachable
	kCall
	kCallInd
	kGlobalGet
	kGlobalSet
	kMemSize
	kMemGrow
	kMemCopy
	kMemFill

	// Fused pairs (rir.FuseMem), one case per fusable pair of halves,
	// and one per check of a memory half. The halves are pairs[c]. The
	// first half writes its register, and the second reads it from the
	// frame like any op, so a pair does what its halves do unfused.
	kPairLinBrLt
	kPairLoad64BrLt
	kPairLoad64BrLtUnchecked
	kPairI32AndBrEq
	kPairLinLin
	kPairLinLoad64
	kPairLinLoad64Unchecked
	kPairLoad32Lin
	kPairLoad32LinUnchecked
	kPairLoad64F64Add
	kPairLoad64F64Sub
	kPairLoad64F64Mul
	kPairLoad64F64AddUnchecked
	kPairLoad64F64SubUnchecked
	kPairLoad64F64MulUnchecked
	kPairF64AddStore64
	kPairF64SubStore64
	kPairF64MulStore64
	kPairF64DivStore64
	kPairF64AddStore64Unchecked
	kPairF64SubStore64Unchecked
	kPairF64MulStore64Unchecked
	kPairF64DivStore64Unchecked
	kPairF64MulF64Add
	kPairF64MulF64Sub
	kPairF64SubF64Mul
	kPairF64AddF64Mul
	kPairI32EqI32And
	kPairI64MulI64ShrU
	kPairI64ExtendXor
	kPairI64XorMove
	kPairI32RemSConvert
	kPairI32LtSSelect
	// The loop latch, x += k into an i32 signed bound (one dispatch in
	// eleven over the kernels), inline: fr[d] = fr[a] + imm, then to t
	// when it is below fr[b] (or below y.k), else to e.
	kLatch
	kLatchK

	// kAccount charges and publishes the op after it; only the
	// accounted streams hold it (account).
	kAccount
)

// isPair reports whether k runs a fused pair.
func isPair(k kind) bool { return k >= kPairLinBrLt && k <= kLatchK }

// pairKinds maps a fusable pair of halves, first<<8|second, to its
// checked and unchecked case (the same when no half touches memory).
var pairKinds = map[rir.Half][2]kind{
	rir.HLin<<8 | rir.HBrLt:               {kPairLinBrLt, kPairLinBrLt},
	rir.HLoad64<<8 | rir.HBrLt:            {kPairLoad64BrLt, kPairLoad64BrLtUnchecked},
	rir.HI32And<<8 | rir.HBrEq:            {kPairI32AndBrEq, kPairI32AndBrEq},
	rir.HLin<<8 | rir.HLin:                {kPairLinLin, kPairLinLin},
	rir.HLin<<8 | rir.HLoad64:             {kPairLinLoad64, kPairLinLoad64Unchecked},
	rir.HLoad32<<8 | rir.HLin:             {kPairLoad32Lin, kPairLoad32LinUnchecked},
	rir.HLoad64<<8 | rir.HF64Add:          {kPairLoad64F64Add, kPairLoad64F64AddUnchecked},
	rir.HLoad64<<8 | rir.HF64Sub:          {kPairLoad64F64Sub, kPairLoad64F64SubUnchecked},
	rir.HLoad64<<8 | rir.HF64Mul:          {kPairLoad64F64Mul, kPairLoad64F64MulUnchecked},
	rir.HF64Add<<8 | rir.HStore64:         {kPairF64AddStore64, kPairF64AddStore64Unchecked},
	rir.HF64Sub<<8 | rir.HStore64:         {kPairF64SubStore64, kPairF64SubStore64Unchecked},
	rir.HF64Mul<<8 | rir.HStore64:         {kPairF64MulStore64, kPairF64MulStore64Unchecked},
	rir.HF64Div<<8 | rir.HStore64:         {kPairF64DivStore64, kPairF64DivStore64Unchecked},
	rir.HF64Mul<<8 | rir.HF64Add:          {kPairF64MulF64Add, kPairF64MulF64Add},
	rir.HF64Mul<<8 | rir.HF64Sub:          {kPairF64MulF64Sub, kPairF64MulF64Sub},
	rir.HF64Sub<<8 | rir.HF64Mul:          {kPairF64SubF64Mul, kPairF64SubF64Mul},
	rir.HF64Add<<8 | rir.HF64Mul:          {kPairF64AddF64Mul, kPairF64AddF64Mul},
	rir.HI32Eq<<8 | rir.HI32And:           {kPairI32EqI32And, kPairI32EqI32And},
	rir.HI64Mul<<8 | rir.HI64ShrU:         {kPairI64MulI64ShrU, kPairI64MulI64ShrU},
	rir.HI64ExtendI32S<<8 | rir.HI64Xor:   {kPairI64ExtendXor, kPairI64ExtendXor},
	rir.HI64Xor<<8 | rir.HMove:            {kPairI64XorMove, kPairI64XorMove},
	rir.HI32RemS<<8 | rir.HF64ConvertI32S: {kPairI32RemSConvert, kPairI32RemSConvert},
	rir.HI32LtS<<8 | rir.HSelect:          {kPairI32LtSSelect, kPairI32LtSSelect},
}

// truncSat is rir.TruncSatOps as a table the run loop indexes.
var truncSat = func() (t [256]rir.UnFn) {
	for sub, fn := range rir.TruncSatOps {
		t[byte(sub)] = fn
	}
	return t
}()

// emit compiles the register IR to the executed stream: one op per
// rir.Inst, the halves of its fused pairs, and its br_table targets
// and range-check plans, copied out of f — the function keeps none of
// f — and then proves every frame slot the stream addresses.
func (cf *cfunc) emit(f *rir.Func) error {
	cf.code = make([]op, len(f.Code))
	for pc := range f.Code {
		s := &f.Code[pc]
		x, err := cf.opOf(f, s, int32(pc))
		if err != nil {
			return fmt.Errorf("compiled: op %d (%s): %w", pc, s.Op, err)
		}
		cf.code[pc] = x
	}
	return cf.prove()
}

// opOf chooses the case of s, at pc, and captures its operands.
func (cf *cfunc) opOf(f *rir.Func, s *rir.Inst, pc int32) (op, error) {
	x := op{cls: s.Class, fl: s.Flags & (rir.MemAcc | rir.Unchecked)}
	els := pc + 1
	if s.Has(rir.HasElse) {
		els = s.Else
	}
	switch s.Shape {
	case rir.ShNop:
		x.k = kNop
	case rir.ShConst:
		x.k, x.d, x.imm = kConst, s.Dst, s.Imm
	case rir.ShMove:
		x.k, x.d, x.a = kMove, s.Dst, s.A
	case rir.ShUn:
		if rir.UnOps[s.Op] == nil {
			return x, fmt.Errorf("no unary implementation")
		}
		x.k, x.d, x.a, x.wop = kUn, s.Dst, s.A, uint8(s.Op)
	case rir.ShTruncSat:
		if truncSat[s.Sub] == nil {
			return x, fmt.Errorf("no trunc_sat implementation for %v", wasm.SubOpcode(s.Sub))
		}
		x.k, x.d, x.a, x.wop = kTruncSat, s.Dst, s.A, s.Sub
	case rir.ShBin:
		return x, binOf(f, s, &x)
	case rir.ShSelect:
		x.k, x.d, x.a, x.b, x.c = kSelect, s.Dst, s.A, s.B, int32(f.C(s))
	case rir.ShLoad:
		return x, loadOf(f, s, &x)
	case rir.ShStore:
		return x, storeOf(f, s, &x)
	case rir.ShRangeCheck:
		x.k, x.t, x.c = kRangeCheck, s.Tgt, int32(len(cf.checks))
		cf.checks = append(cf.checks, *f.Check(s))
	case rir.ShJump:
		x.k, x.t = kJump, s.Tgt
		if src, dst := f.Carry(s); src >= 0 {
			x.k, x.a, x.d = kJumpCarry, int32(src), int32(dst)
		}
	case rir.ShIfFalse:
		x.k, x.a, x.t = kIfFalse, s.A, s.Tgt
	case rir.ShBranchIf:
		x.k, x.a, x.t = kBranchIf, s.A, s.Tgt
		if src, dst := f.Carry(s); src >= 0 {
			x.k, x.b, x.d = kBranchIfCarry, int32(src), int32(dst)
		}
	case rir.ShCmpBranch:
		return x, branchOf(f, s, &x, s.Tgt, els)
	case rir.ShBrTable:
		t := f.Table(s)
		x.k, x.a, x.c = kBrTable, s.A, int32(len(cf.tables))
		// The slot below the index exists only where a target carries it.
		if slices.ContainsFunc(t.Targets, func(bt flatten.BranchTarget) bool { return bt.Arity > 0 }) {
			x.b = t.CarrySrc
		}
		cf.tables = append(cf.tables, slices.Clone(t.Targets))
	case rir.ShReturn:
		x.k = kReturn
		if src, _ := f.Carry(s); src >= 0 {
			x.k, x.a = kReturnCarry, int32(src)
		}
	case rir.ShUnreachable:
		x.k = kUnreachable
	case rir.ShCall, rir.ShCallInd:
		c := f.Call(s)
		x.k, x.imm, x.d = kCall, uint64(c.Fidx), c.ArgBase
		x.b = c.ArgBase + int32(max(c.NArgs, c.Results, 1)) - 1
		if s.Shape == rir.ShCallInd {
			x.k, x.a = kCallInd, s.A
		}
	case rir.ShGlobalGet:
		x.k, x.d, x.imm = kGlobalGet, s.Dst, s.Imm
	case rir.ShGlobalSet:
		x.k, x.a, x.imm = kGlobalSet, s.A, s.Imm
	case rir.ShMemSize:
		x.k, x.d = kMemSize, s.Dst
	case rir.ShMemGrow:
		x.k, x.d, x.a = kMemGrow, s.Dst, s.A
	case rir.ShMemCopy, rir.ShMemFill:
		x.k, x.a, x.b, x.c = kMemCopy, s.A, s.B, int32(f.C(s))
		if s.Shape == rir.ShMemFill {
			x.k = kMemFill
		}
	case rir.ShLoadOp, rir.ShOpStore, rir.ShPair, rir.ShPairBr:
		return x, cf.pairOf(f, s, &x, els)
	default:
		return x, fmt.Errorf("unknown shape %d", s.Shape)
	}
	return x, nil
}

// operands captures s's operands A and B into x, a slot's under mask.
func operands(f *rir.Func, s *rir.Inst, x *op, mask uint64) {
	x.x, x.a = opd{m: mask}, s.A
	if s.Has(rir.AImm) {
		x.x, x.a = opd{k: s.Imm & mask}, 0
	}
	x.y, x.b = opd{m: mask}, s.B
	if s.Has(rir.BImm) {
		x.y, x.b = opd{k: f.ImmB(s) & mask}, 0
	}
}

// binOf chooses a binary op's case: the hottest opcodes over two slots
// or a slot and a constant have their own, every other form is kBin.
// An i32 linear op also gets its form in l, for the pair that reads it.
func binOf(f *rir.Func, s *rir.Inst, x *op) error {
	if rir.BinOps[s.Op] == nil {
		return fmt.Errorf("no binary implementation")
	}
	x.k, x.d, x.wop = kBin, s.Dst, uint8(s.Op)
	operands(f, s, x, ^uint64(0))
	if l, ok := rir.LinOf(s); ok {
		x.l = linOf(l)
	}
	switch {
	case s.Has(rir.AImm):
	case s.Has(rir.BImm):
		switch s.Op {
		case wasm.OpI32Add:
			x.k = kI32AddK
		case wasm.OpI32Mul:
			x.k = kI32MulK
		case wasm.OpI32Shl:
			x.k = kI32ShlK
		}
	default:
		switch s.Op {
		case wasm.OpI32Add:
			x.k = kI32Add
		case wasm.OpI32Sub:
			x.k = kI32Sub
		case wasm.OpI32Mul:
			x.k = kI32Mul
		case wasm.OpF64Add:
			x.k = kF64Add
		case wasm.OpF64Sub:
			x.k = kF64Sub
		case wasm.OpF64Mul:
			x.k = kF64Mul
		case wasm.OpF64Div:
			x.k = kF64Div
		}
	}
	return nil
}

// cmpLess maps the less-than family of integer compares onto one
// unsigned compare: cmp(a, b) = less(p, q) != neg, where (p, q) is
// (a, b) or, when swap, (b, a), and less(p, q) is
// (p&mask)^flip < (q&mask)^flip — flipping the sign bit turns a signed
// order into the unsigned one.
func cmpLess(op wasm.Opcode) (swap, neg bool, mask, flip uint64) {
	const m32, s32, m64, s64 = 1<<32 - 1, 1 << 31, 1<<64 - 1, 1 << 63
	switch op {
	case wasm.OpI32LtS:
		return false, false, m32, s32
	case wasm.OpI32GtS:
		return true, false, m32, s32
	case wasm.OpI32LeS:
		return true, true, m32, s32
	case wasm.OpI32GeS:
		return false, true, m32, s32
	case wasm.OpI32LtU:
		return false, false, m32, 0
	case wasm.OpI32GtU:
		return true, false, m32, 0
	case wasm.OpI32LeU:
		return true, true, m32, 0
	case wasm.OpI32GeU:
		return false, true, m32, 0
	case wasm.OpI64LtS:
		return false, false, m64, s64
	case wasm.OpI64GtS:
		return true, false, m64, s64
	case wasm.OpI64LeS:
		return true, true, m64, s64
	case wasm.OpI64GeS:
		return false, true, m64, s64
	case wasm.OpI64LtU:
		return false, false, m64, 0
	case wasm.OpI64GtU:
		return true, false, m64, 0
	case wasm.OpI64LeU:
		return true, true, m64, 0
	default: // wasm.OpI64GeU
		return false, true, m64, 0
	}
}

// branchOf chooses a compare+branch's case, with its taken edge at tgt
// and its other edge at els, and sets t and e so that the case goes to
// t when its test holds.
func branchOf(f *rir.Func, s *rir.Inst, x *op, tgt, els int32) error {
	switch f.HalfOf(s) {
	case rir.HBrLt:
		swap, neg, mask, flip := cmpLess(s.CmpOp)
		operands(f, s, x, mask)
		if swap {
			x.x, x.y, x.a, x.b = x.y, x.x, x.b, x.a
		}
		x.k, x.imm = kBrLt, flip
		if x.t, x.e = els, tgt; s.Has(rir.BrOnTrue) != neg {
			x.t, x.e = tgt, els
		}
		// An i32 signed bound against a slot or a constant: every
		// counted loop's header.
		if mask == 1<<32-1 && flip == 1<<31 && x.x.m != 0 {
			x.k = kBrLtI32S
			if x.y.m == 0 {
				x.k = kBrLtI32SK
			}
		}
	case rir.HBrEq:
		mask := uint64(1<<32 - 1)
		if s.CmpOp == wasm.OpI64Eq || s.CmpOp == wasm.OpI64Ne {
			mask = ^uint64(0)
		}
		operands(f, s, x, mask)
		x.k = kBrEq
		eq := s.CmpOp == wasm.OpI32Eq || s.CmpOp == wasm.OpI64Eq
		if x.t, x.e = els, tgt; s.Has(rir.BrOnTrue) == eq {
			x.t, x.e = tgt, els
		}
	default:
		if rir.BinOps[s.CmpOp] == nil {
			return fmt.Errorf("no compare implementation for %s", s.CmpOp)
		}
		operands(f, s, x, ^uint64(0))
		x.k, x.wop = kBrCmp, uint8(s.CmpOp)
		if x.t, x.e = els, tgt; s.Has(rir.BrOnTrue) {
			x.t, x.e = tgt, els
		}
	}
	return nil
}

// access captures an access's address into x: its folded chain, its
// address slot, or nothing (a constant address, all in the offset). It
// reports whether the address is one slot plus the offset, which the
// slot cases read from a; l keeps the form, which a pair's half reads.
func access(f *rir.Func, s *rir.Inst, x *op) (slot bool) {
	switch a := f.Addr(s); {
	case a != nil:
		x.l = linOf(*a)
	case !s.Has(rir.AImm):
		x.l = linOf(rir.LinSlot(int(s.A)))
	}
	x.imm = s.Off
	return x.l.cx == 1 && x.l.cy == 0 && x.l.k == 0
}

// loadOf chooses a load's case by width, extension, check and address
// form.
func loadOf(f *rir.Func, s *rir.Inst, x *op) error {
	x.d = s.Dst
	slot := access(f, s, x)
	var k kind
	switch s.Op {
	case wasm.OpI32Load, wasm.OpF32Load, wasm.OpI64Load32U:
		k = kLoad32
		if slot {
			k, x.a = kLoad32Slot, x.l.x
		}
	case wasm.OpI64Load, wasm.OpF64Load:
		k = kLoad64
		if slot {
			k, x.a = kLoad64Slot, x.l.x
		}
	case wasm.OpI32Load8S:
		k = kLoad8S32
	case wasm.OpI32Load8U, wasm.OpI64Load8U:
		k = kLoad8U
	case wasm.OpI32Load16S:
		k = kLoad16S32
	case wasm.OpI32Load16U, wasm.OpI64Load16U:
		k = kLoad16U
	case wasm.OpI64Load8S:
		k = kLoad8S64
	case wasm.OpI64Load16S:
		k = kLoad16S64
	case wasm.OpI64Load32S:
		k = kLoad32S64
	default:
		return fmt.Errorf("bad load opcode")
	}
	if s.Has(rir.Unchecked) {
		k += kLoad32Unchecked - kLoad32
	}
	x.k = k
	return nil
}

// storeOf chooses a store's case; see loadOf. The value is y, or slot b
// in the slot-address cases.
func storeOf(f *rir.Func, s *rir.Inst, x *op) error {
	slot := access(f, s, x) && !s.Has(rir.BImm)
	x.y, x.b = opd{m: ^uint64(0)}, s.B
	if s.Has(rir.BImm) {
		x.y, x.b = opd{k: f.ImmB(s)}, 0
	}
	var k kind
	switch s.Op {
	case wasm.OpI32Store, wasm.OpF32Store, wasm.OpI64Store32:
		k = kStore32
		if slot {
			k, x.a = kStore32Slot, x.l.x
		}
	case wasm.OpI64Store, wasm.OpF64Store:
		k = kStore64
		if slot {
			k, x.a = kStore64Slot, x.l.x
		}
	case wasm.OpI32Store8, wasm.OpI64Store8:
		k = kStore8
	case wasm.OpI32Store16, wasm.OpI64Store16:
		k = kStore16
	default:
		return fmt.Errorf("bad store opcode")
	}
	if s.Has(rir.Unchecked) {
		k += kStore8Unchecked - kStore8
	}
	x.k = k
	return nil
}

// pairOf chooses a fused pair's case and puts its halves in cf.pairs,
// each captured as the op it is unfused. A branch half goes to the
// pair's targets, which the pair op carries.
func (cf *cfunc) pairOf(f *rir.Func, s *rir.Inst, x *op, els int32) error {
	p := f.Pair(s)
	key := f.HalfOf(&p[0])<<8 | f.HalfOf(&p[1])
	ks, ok := pairKinds[key]
	if !ok {
		return fmt.Errorf("no case for pair %s ; %s", p[0].Op, p[1].Op)
	}
	var h [2]op
	for i := range p {
		var err error
		if p[i].Shape == rir.ShCmpBranch {
			h[i].cls = p[i].Class
			err = branchOf(f, &p[i], &h[i], s.Tgt, els)
		} else {
			h[i], err = cf.opOf(f, &p[i], 0)
		}
		if err != nil {
			return err
		}
	}
	x.k, x.wop, x.t, x.e = ks[0], uint8(s.Shape), h[1].t, h[1].e
	if s.Has(rir.Unchecked) {
		x.k = ks[1]
	}
	x.c = int32(len(cf.pairs))
	cf.pairs = append(cf.pairs, h)
	// The latch runs from the pair op's own fields.
	if x.k == kPairLinBrLt && h[0].l.cx == 1 && h[0].l.cy == 0 && (h[1].k == kBrLtI32S || h[1].k == kBrLtI32SK) && h[1].a == h[0].d {
		x.k, x.a, x.d, x.imm = kLatch, h[0].l.x, h[0].d, uint64(h[0].l.k)
		x.b, x.y = h[1].b, h[1].y
		if h[1].k == kBrLtI32SK {
			x.k = kLatchK
		}
	}
	return nil
}

// account returns the op that charges x in an accounted stream: its
// class in a, the second half's class in b for a pair that charges
// both (rir.ShPair, rir.ShPairBr; -1 otherwise), and in c its check
// flags in the profiler's terms — prof.FlagChecked on an op that
// charges the software check, prof.FlagElided on an access a range
// check proved in bounds.
func (cf *cfunc) account(x *op) op {
	a := op{k: kAccount, a: int32(x.cls), b: -1}
	if isPair(x.k) {
		if sh := rir.Shape(x.wop); sh == rir.ShPair || sh == rir.ShPairBr {
			a.b = int32(cf.pairs[x.c][1].cls)
		}
	}
	if x.fl.Has(rir.MemAcc) {
		a.c |= int32(prof.FlagChecked)
	}
	if x.fl.Has(rir.Unchecked) {
		a.c |= int32(prof.FlagElided)
	}
	return a
}
