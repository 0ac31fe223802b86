package compiled

import (
	"fmt"
	"math"
	"unsafe"

	"leapsandbounds/internal/isa"
	"leapsandbounds/internal/prof"
	"leapsandbounds/internal/rir"
	"leapsandbounds/internal/trap"
)

// frame addresses one activation's slots in inst.stack's backing
// array: the locals from 0, then the registers. prove shows at compile
// time that every slot a function's stream addresses lies below its
// frameSize, and ensureStack makes that many slots follow the frame's
// base, so run reads and writes them without Go's bounds checks.
type frame struct{ p unsafe.Pointer }

func frameAt(stack []uint64, base int) frame { return frame{unsafe.Pointer(&stack[base])} }

// at returns slot i of the frame.
func (f frame) at(i int32) *uint64 { return (*uint64)(unsafe.Add(f.p, int(i)*8)) }

// prove checks every frame slot the function's stream addresses
// against its frame size — every op's and every pair half's operand,
// written and address slots, call windows, br_table carries and range
// check plans — so that run can address them through a frame. A slot
// at or past frameSize is a compile error naming the op.
func (cf *cfunc) prove() error {
	n := uint32(cf.frameSize)
	in := func(slots ...int32) bool {
		for _, s := range slots {
			if uint32(s) >= n {
				return false
			}
		}
		return true
	}
	opIn := func(x *op) bool {
		ok := in(x.a, x.b, x.d, x.l.x, x.l.y)
		switch x.k {
		case kSelect, kMemCopy, kMemFill:
			ok = ok && in(x.c)
		case kBrTable:
			for _, bt := range cf.tables[x.c] {
				ok = ok && in(bt.PopTo)
			}
		case kRangeCheck:
			p := &cf.checks[x.c]
			ok = ok && in(int32(p.IndSlot), int32(p.Limit.X), int32(p.Limit.Y))
			for _, r := range p.Ranges {
				ok = ok && in(int32(r.Addr.X), int32(r.Addr.Y))
			}
		}
		if isPair(x.k) {
			h := &cf.pairs[x.c]
			ok = ok && in(h[0].a, h[0].b, h[0].c, h[0].d, h[0].l.x, h[0].l.y, h[1].a, h[1].b, h[1].c, h[1].d, h[1].l.x, h[1].l.y)
		}
		return ok
	}
	for pc := range cf.code {
		if !opIn(&cf.code[pc]) {
			return fmt.Errorf("compiled: op %d addresses a slot outside its frame of %d", pc, n)
		}
	}
	return nil
}

// run executes a compiled function with its frame at base: one switch
// over the function's stream, which Go compiles to a single jump table,
// one indirect jump per op. The frame is re-read from inst.stack after
// the ops whose callee can grow it.
func (inst *Instance) run(cf *cfunc, base int) {
	code, pairs := cf.code, cf.pairs
	fr := frameAt(inst.stack, base)
	m := inst.base.Mem
	for pc := 0; ; pc++ {
		x := &code[pc]
		switch x.k {
		case kNop:
		case kConst:
			*fr.at(x.d) = x.imm
		case kMove:
			*fr.at(x.d) = *fr.at(x.a)
		case kUn:
			*fr.at(x.d) = rir.UnOps[x.wop](*fr.at(x.a))
		case kTruncSat:
			*fr.at(x.d) = truncSat[x.wop](*fr.at(x.a))
		case kBin:
			*fr.at(x.d) = rir.BinOps[x.wop](x.xv(fr), x.yv(fr))
		case kI32Add:
			*fr.at(x.d) = uint64(uint32(*fr.at(x.a)) + uint32(*fr.at(x.b)))
		case kI32Sub:
			*fr.at(x.d) = uint64(uint32(*fr.at(x.a)) - uint32(*fr.at(x.b)))
		case kI32Mul:
			*fr.at(x.d) = uint64(uint32(*fr.at(x.a)) * uint32(*fr.at(x.b)))
		case kF64Add:
			*fr.at(x.d) = f64add(*fr.at(x.a), *fr.at(x.b))
		case kF64Sub:
			*fr.at(x.d) = f64sub(*fr.at(x.a), *fr.at(x.b))
		case kF64Mul:
			*fr.at(x.d) = f64mul(*fr.at(x.a), *fr.at(x.b))
		case kF64Div:
			*fr.at(x.d) = f64div(*fr.at(x.a), *fr.at(x.b))
		case kI32AddK:
			*fr.at(x.d) = uint64(uint32(*fr.at(x.a)) + uint32(x.y.k))
		case kI32MulK:
			*fr.at(x.d) = uint64(uint32(*fr.at(x.a)) * uint32(x.y.k))
		case kI32ShlK:
			*fr.at(x.d) = uint64(uint32(*fr.at(x.a)) << (uint32(x.y.k) & 31))
		case kSelect:
			x.sel(fr)

		// A checked access is the inline check: it compares its end
		// against mem's watermark, accesses through the unchecked
		// pointer on a hit and calls the checked accessor only on a
		// miss, which commits, redirects or traps as the strategy says.
		case kLoad32:
			if a := x.addr(fr); a+4 <= m.Watermark() {
				*fr.at(x.d) = uint64(m.LoadU32Unchecked(a))
			} else {
				*fr.at(x.d) = uint64(m.LoadU32(a))
			}
		case kLoad64:
			if a := x.addr(fr); a+8 <= m.Watermark() {
				*fr.at(x.d) = m.LoadU64Unchecked(a)
			} else {
				*fr.at(x.d) = m.LoadU64(a)
			}
		case kLoad8S32:
			if a := x.addr(fr); a+1 <= m.Watermark() {
				*fr.at(x.d) = uint64(uint32(int32(int8(m.LoadU8Unchecked(a)))))
			} else {
				*fr.at(x.d) = uint64(uint32(int32(int8(m.LoadU8(a)))))
			}
		case kLoad8U:
			if a := x.addr(fr); a+1 <= m.Watermark() {
				*fr.at(x.d) = uint64(m.LoadU8Unchecked(a))
			} else {
				*fr.at(x.d) = uint64(m.LoadU8(a))
			}
		case kLoad16S32:
			if a := x.addr(fr); a+2 <= m.Watermark() {
				*fr.at(x.d) = uint64(uint32(int32(int16(m.LoadU16Unchecked(a)))))
			} else {
				*fr.at(x.d) = uint64(uint32(int32(int16(m.LoadU16(a)))))
			}
		case kLoad16U:
			if a := x.addr(fr); a+2 <= m.Watermark() {
				*fr.at(x.d) = uint64(m.LoadU16Unchecked(a))
			} else {
				*fr.at(x.d) = uint64(m.LoadU16(a))
			}
		case kLoad8S64:
			if a := x.addr(fr); a+1 <= m.Watermark() {
				*fr.at(x.d) = uint64(int64(int8(m.LoadU8Unchecked(a))))
			} else {
				*fr.at(x.d) = uint64(int64(int8(m.LoadU8(a))))
			}
		case kLoad16S64:
			if a := x.addr(fr); a+2 <= m.Watermark() {
				*fr.at(x.d) = uint64(int64(int16(m.LoadU16Unchecked(a))))
			} else {
				*fr.at(x.d) = uint64(int64(int16(m.LoadU16(a))))
			}
		case kLoad32S64:
			if a := x.addr(fr); a+4 <= m.Watermark() {
				*fr.at(x.d) = uint64(int64(int32(m.LoadU32Unchecked(a))))
			} else {
				*fr.at(x.d) = uint64(int64(int32(m.LoadU32(a))))
			}
		case kLoad32Slot:
			if a := x.slotAddr(fr); a+4 <= m.Watermark() {
				*fr.at(x.d) = uint64(m.LoadU32Unchecked(a))
			} else {
				*fr.at(x.d) = uint64(m.LoadU32(a))
			}
		case kLoad64Slot:
			if a := x.slotAddr(fr); a+8 <= m.Watermark() {
				*fr.at(x.d) = m.LoadU64Unchecked(a)
			} else {
				*fr.at(x.d) = m.LoadU64(a)
			}
		case kLoad32Unchecked:
			*fr.at(x.d) = uint64(m.LoadU32Unchecked(x.addr(fr)))
		case kLoad64Unchecked:
			*fr.at(x.d) = m.LoadU64Unchecked(x.addr(fr))
		case kLoad8S32Unchecked:
			*fr.at(x.d) = uint64(uint32(int32(int8(m.LoadU8Unchecked(x.addr(fr))))))
		case kLoad8UUnchecked:
			*fr.at(x.d) = uint64(m.LoadU8Unchecked(x.addr(fr)))
		case kLoad16S32Unchecked:
			*fr.at(x.d) = uint64(uint32(int32(int16(m.LoadU16Unchecked(x.addr(fr))))))
		case kLoad16UUnchecked:
			*fr.at(x.d) = uint64(m.LoadU16Unchecked(x.addr(fr)))
		case kLoad8S64Unchecked:
			*fr.at(x.d) = uint64(int64(int8(m.LoadU8Unchecked(x.addr(fr)))))
		case kLoad16S64Unchecked:
			*fr.at(x.d) = uint64(int64(int16(m.LoadU16Unchecked(x.addr(fr)))))
		case kLoad32S64Unchecked:
			*fr.at(x.d) = uint64(int64(int32(m.LoadU32Unchecked(x.addr(fr)))))
		case kLoad32SlotUnchecked:
			*fr.at(x.d) = uint64(m.LoadU32Unchecked(x.slotAddr(fr)))
		case kLoad64SlotUnchecked:
			*fr.at(x.d) = m.LoadU64Unchecked(x.slotAddr(fr))
		case kStore8:
			if a := x.addr(fr); a+1 <= m.Watermark() {
				m.StoreU8Unchecked(a, byte(x.yv(fr)))
			} else {
				m.StoreU8(a, byte(x.yv(fr)))
			}
		case kStore16:
			if a := x.addr(fr); a+2 <= m.Watermark() {
				m.StoreU16Unchecked(a, uint16(x.yv(fr)))
			} else {
				m.StoreU16(a, uint16(x.yv(fr)))
			}
		case kStore32:
			if a := x.addr(fr); a+4 <= m.Watermark() {
				m.StoreU32Unchecked(a, uint32(x.yv(fr)))
			} else {
				m.StoreU32(a, uint32(x.yv(fr)))
			}
		case kStore64:
			if a := x.addr(fr); a+8 <= m.Watermark() {
				m.StoreU64Unchecked(a, x.yv(fr))
			} else {
				m.StoreU64(a, x.yv(fr))
			}
		case kStore32Slot:
			if a := x.slotAddr(fr); a+4 <= m.Watermark() {
				m.StoreU32Unchecked(a, uint32(*fr.at(x.b)))
			} else {
				m.StoreU32(a, uint32(*fr.at(x.b)))
			}
		case kStore64Slot:
			if a := x.slotAddr(fr); a+8 <= m.Watermark() {
				m.StoreU64Unchecked(a, *fr.at(x.b))
			} else {
				m.StoreU64(a, *fr.at(x.b))
			}
		case kStore8Unchecked:
			m.StoreU8Unchecked(x.addr(fr), byte(x.yv(fr)))
		case kStore16Unchecked:
			m.StoreU16Unchecked(x.addr(fr), uint16(x.yv(fr)))
		case kStore32Unchecked:
			m.StoreU32Unchecked(x.addr(fr), uint32(x.yv(fr)))
		case kStore64Unchecked:
			m.StoreU64Unchecked(x.addr(fr), x.yv(fr))
		case kStore32SlotUnchecked:
			m.StoreU32Unchecked(x.slotAddr(fr), uint32(*fr.at(x.b)))
		case kStore64SlotUnchecked:
			m.StoreU64Unchecked(x.slotAddr(fr), *fr.at(x.b))

		case kRangeCheck:
			if !inst.inRange(&cf.checks[x.c], base) {
				pc = int(x.t) - 1
			}
		case kJump:
			pc = int(x.t) - 1
		case kJumpCarry:
			*fr.at(x.d) = *fr.at(x.a)
			pc = int(x.t) - 1
		case kIfFalse:
			if uint32(*fr.at(x.a)) == 0 {
				pc = int(x.t) - 1
			}
		case kBranchIf:
			if uint32(*fr.at(x.a)) != 0 {
				pc = int(x.t) - 1
			}
		case kBranchIfCarry:
			if uint32(*fr.at(x.a)) != 0 {
				*fr.at(x.d) = *fr.at(x.b)
				pc = int(x.t) - 1
			}
		case kBrLt:
			pc = x.to(x.lt(fr)) - 1
		case kBrLtI32S:
			pc = x.to(int32(*fr.at(x.a)) < int32(*fr.at(x.b))) - 1
		case kBrLtI32SK:
			pc = x.to(int32(*fr.at(x.a)) < int32(x.y.k)) - 1
		case kBrEq:
			pc = x.to(x.eq(fr)) - 1
		case kBrCmp:
			pc = x.to(rir.BinOps[x.wop](x.xv(fr), x.yv(fr)) != 0) - 1
		case kBrTable:
			t := cf.tables[x.c]
			bt := &t[min(uint64(uint32(*fr.at(x.a))), uint64(len(t)-1))] // default entry last
			if bt.Arity > 0 {
				*fr.at(bt.PopTo) = *fr.at(x.b)
			}
			pc = int(bt.Tgt) - 1
		case kReturn:
			return
		case kReturnCarry:
			*fr.at(0) = *fr.at(x.a)
			return
		case kUnreachable:
			trap.Throw(trap.Unreachable)
		case kCall:
			inst.callFunc(uint32(x.imm), base+int(x.d))
			fr = frameAt(inst.stack, base)
		case kCallInd:
			inst.callFunc(inst.base.ResolveIndirect(uint32(*fr.at(x.a)), uint32(x.imm)), base+int(x.d))
			fr = frameAt(inst.stack, base)
		case kGlobalGet:
			*fr.at(x.d) = inst.base.Globals[x.imm]
		case kGlobalSet:
			inst.base.Globals[x.imm] = *fr.at(x.a)
		case kMemSize:
			*fr.at(x.d) = uint64(m.SizePages())
		case kMemGrow:
			*fr.at(x.d) = uint64(uint32(m.Grow(uint32(*fr.at(x.a)))))
		case kMemCopy:
			m.Copy(uint64(uint32(*fr.at(x.a))), uint64(uint32(*fr.at(x.b))), uint64(uint32(*fr.at(x.c))))
		case kMemFill:
			m.Fill(uint64(uint32(*fr.at(x.a))), *fr.at(x.b)&0xff, uint64(uint32(*fr.at(x.c))))

		case kPairLinBrLt:
			h := &pairs[x.c]
			*fr.at(h[0].d) = uint64(h[0].lv(fr))
			pc = x.to(h[1].lt(fr)) - 1
		case kLatch:
			v := uint32(*fr.at(x.a)) + uint32(x.imm)
			*fr.at(x.d) = uint64(v)
			pc = x.to(int32(v) < int32(*fr.at(x.b))) - 1
		case kLatchK:
			v := uint32(*fr.at(x.a)) + uint32(x.imm)
			*fr.at(x.d) = uint64(v)
			pc = x.to(int32(v) < int32(x.y.k)) - 1
		case kPairLoad64BrLt:
			h := &pairs[x.c]
			if a := h[0].addr(fr); a+8 <= m.Watermark() {
				*fr.at(h[0].d) = m.LoadU64Unchecked(a)
			} else {
				*fr.at(h[0].d) = m.LoadU64(a)
			}
			pc = x.to(h[1].lt(fr)) - 1
		case kPairLoad64BrLtUnchecked:
			h := &pairs[x.c]
			*fr.at(h[0].d) = m.LoadU64Unchecked(h[0].addr(fr))
			pc = x.to(h[1].lt(fr)) - 1
		case kPairI32AndBrEq:
			h := &pairs[x.c]
			*fr.at(h[0].d) = uint64(uint32(h[0].xv(fr)) & uint32(h[0].yv(fr)))
			pc = x.to(h[1].eq(fr)) - 1
		case kPairLinLin:
			h := &pairs[x.c]
			*fr.at(h[0].d) = uint64(h[0].lv(fr))
			*fr.at(h[1].d) = uint64(h[1].lv(fr))
		case kPairLinLoad64:
			h := &pairs[x.c]
			*fr.at(h[0].d) = uint64(h[0].lv(fr))
			if a := h[1].addr(fr); a+8 <= m.Watermark() {
				*fr.at(h[1].d) = m.LoadU64Unchecked(a)
			} else {
				*fr.at(h[1].d) = m.LoadU64(a)
			}
		case kPairLinLoad64Unchecked:
			h := &pairs[x.c]
			*fr.at(h[0].d) = uint64(h[0].lv(fr))
			*fr.at(h[1].d) = m.LoadU64Unchecked(h[1].addr(fr))
		case kPairLoad32Lin:
			h := &pairs[x.c]
			if a := h[0].addr(fr); a+4 <= m.Watermark() {
				*fr.at(h[0].d) = uint64(m.LoadU32Unchecked(a))
			} else {
				*fr.at(h[0].d) = uint64(m.LoadU32(a))
			}
			*fr.at(h[1].d) = uint64(h[1].lv(fr))
		case kPairLoad32LinUnchecked:
			h := &pairs[x.c]
			*fr.at(h[0].d) = uint64(m.LoadU32Unchecked(h[0].addr(fr)))
			*fr.at(h[1].d) = uint64(h[1].lv(fr))
		case kPairLoad64F64Add:
			h := &pairs[x.c]
			if a := h[0].addr(fr); a+8 <= m.Watermark() {
				*fr.at(h[0].d) = m.LoadU64Unchecked(a)
			} else {
				*fr.at(h[0].d) = m.LoadU64(a)
			}
			*fr.at(h[1].d) = f64add(h[1].xv(fr), h[1].yv(fr))
		case kPairLoad64F64Sub:
			h := &pairs[x.c]
			if a := h[0].addr(fr); a+8 <= m.Watermark() {
				*fr.at(h[0].d) = m.LoadU64Unchecked(a)
			} else {
				*fr.at(h[0].d) = m.LoadU64(a)
			}
			*fr.at(h[1].d) = f64sub(h[1].xv(fr), h[1].yv(fr))
		case kPairLoad64F64Mul:
			h := &pairs[x.c]
			if a := h[0].addr(fr); a+8 <= m.Watermark() {
				*fr.at(h[0].d) = m.LoadU64Unchecked(a)
			} else {
				*fr.at(h[0].d) = m.LoadU64(a)
			}
			*fr.at(h[1].d) = f64mul(h[1].xv(fr), h[1].yv(fr))
		case kPairLoad64F64AddUnchecked:
			h := &pairs[x.c]
			*fr.at(h[0].d) = m.LoadU64Unchecked(h[0].addr(fr))
			*fr.at(h[1].d) = f64add(h[1].xv(fr), h[1].yv(fr))
		case kPairLoad64F64SubUnchecked:
			h := &pairs[x.c]
			*fr.at(h[0].d) = m.LoadU64Unchecked(h[0].addr(fr))
			*fr.at(h[1].d) = f64sub(h[1].xv(fr), h[1].yv(fr))
		case kPairLoad64F64MulUnchecked:
			h := &pairs[x.c]
			*fr.at(h[0].d) = m.LoadU64Unchecked(h[0].addr(fr))
			*fr.at(h[1].d) = f64mul(h[1].xv(fr), h[1].yv(fr))
		case kPairF64AddStore64:
			h := &pairs[x.c]
			v := f64add(h[0].xv(fr), h[0].yv(fr))
			*fr.at(h[0].d) = v
			if a := h[1].addr(fr); a+8 <= m.Watermark() {
				m.StoreU64Unchecked(a, v)
			} else {
				m.StoreU64(a, v)
			}
		case kPairF64SubStore64:
			h := &pairs[x.c]
			v := f64sub(h[0].xv(fr), h[0].yv(fr))
			*fr.at(h[0].d) = v
			if a := h[1].addr(fr); a+8 <= m.Watermark() {
				m.StoreU64Unchecked(a, v)
			} else {
				m.StoreU64(a, v)
			}
		case kPairF64MulStore64:
			h := &pairs[x.c]
			v := f64mul(h[0].xv(fr), h[0].yv(fr))
			*fr.at(h[0].d) = v
			if a := h[1].addr(fr); a+8 <= m.Watermark() {
				m.StoreU64Unchecked(a, v)
			} else {
				m.StoreU64(a, v)
			}
		case kPairF64DivStore64:
			h := &pairs[x.c]
			v := f64div(h[0].xv(fr), h[0].yv(fr))
			*fr.at(h[0].d) = v
			if a := h[1].addr(fr); a+8 <= m.Watermark() {
				m.StoreU64Unchecked(a, v)
			} else {
				m.StoreU64(a, v)
			}
		case kPairF64AddStore64Unchecked:
			h := &pairs[x.c]
			v := f64add(h[0].xv(fr), h[0].yv(fr))
			*fr.at(h[0].d) = v
			m.StoreU64Unchecked(h[1].addr(fr), v)
		case kPairF64SubStore64Unchecked:
			h := &pairs[x.c]
			v := f64sub(h[0].xv(fr), h[0].yv(fr))
			*fr.at(h[0].d) = v
			m.StoreU64Unchecked(h[1].addr(fr), v)
		case kPairF64MulStore64Unchecked:
			h := &pairs[x.c]
			v := f64mul(h[0].xv(fr), h[0].yv(fr))
			*fr.at(h[0].d) = v
			m.StoreU64Unchecked(h[1].addr(fr), v)
		case kPairF64DivStore64Unchecked:
			h := &pairs[x.c]
			v := f64div(h[0].xv(fr), h[0].yv(fr))
			*fr.at(h[0].d) = v
			m.StoreU64Unchecked(h[1].addr(fr), v)
		case kPairF64MulF64Add:
			h := &pairs[x.c]
			*fr.at(h[0].d) = f64mul(h[0].xv(fr), h[0].yv(fr))
			*fr.at(h[1].d) = f64add(h[1].xv(fr), h[1].yv(fr))
		case kPairF64MulF64Sub:
			h := &pairs[x.c]
			*fr.at(h[0].d) = f64mul(h[0].xv(fr), h[0].yv(fr))
			*fr.at(h[1].d) = f64sub(h[1].xv(fr), h[1].yv(fr))
		case kPairF64SubF64Mul:
			h := &pairs[x.c]
			*fr.at(h[0].d) = f64sub(h[0].xv(fr), h[0].yv(fr))
			*fr.at(h[1].d) = f64mul(h[1].xv(fr), h[1].yv(fr))
		case kPairF64AddF64Mul:
			h := &pairs[x.c]
			*fr.at(h[0].d) = f64add(h[0].xv(fr), h[0].yv(fr))
			*fr.at(h[1].d) = f64mul(h[1].xv(fr), h[1].yv(fr))
		case kPairI32EqI32And:
			h := &pairs[x.c]
			*fr.at(h[0].d) = bu(uint32(h[0].xv(fr)) == uint32(h[0].yv(fr)))
			*fr.at(h[1].d) = uint64(uint32(h[1].xv(fr)) & uint32(h[1].yv(fr)))
		case kPairI64MulI64ShrU:
			h := &pairs[x.c]
			*fr.at(h[0].d) = h[0].xv(fr) * h[0].yv(fr)
			*fr.at(h[1].d) = h[1].xv(fr) >> (h[1].yv(fr) & 63)
		case kPairI64ExtendXor:
			h := &pairs[x.c]
			*fr.at(h[0].d) = uint64(int64(int32(*fr.at(h[0].a))))
			*fr.at(h[1].d) = h[1].xv(fr) ^ h[1].yv(fr)
		case kPairI64XorMove:
			h := &pairs[x.c]
			*fr.at(h[0].d) = h[0].xv(fr) ^ h[0].yv(fr)
			*fr.at(h[1].d) = *fr.at(h[1].a)
		case kPairI32RemSConvert:
			// The divisor is a non-zero constant (rir.HI32RemS), so the
			// remainder cannot trap; Go's % yields 0 for MinInt32 % -1.
			h := &pairs[x.c]
			*fr.at(h[0].d) = uint64(uint32(int32(h[0].xv(fr)) % int32(h[0].yv(fr))))
			*fr.at(h[1].d) = math.Float64bits(float64(int32(*fr.at(h[1].a))))
		case kPairI32LtSSelect:
			h := &pairs[x.c]
			*fr.at(h[0].d) = bu(int32(h[0].xv(fr)) < int32(h[0].yv(fr)))
			h[1].sel(fr)

		case kAccount:
			inst.account(cf.index, x)
		}
	}
}

// The operand forms every case reads, inlined: operand x and y, an
// access's address (a linear form or one slot, plus the offset), a
// linear op's value, a select, and a branch's test and target. A
// pair's branch half tests, and the pair op, whose targets an
// accounted stream moves, picks the target.

func (x *op) xv(fr frame) uint64 { return *fr.at(x.a)&x.x.m | x.x.k }
func (x *op) yv(fr frame) uint64 { return *fr.at(x.b)&x.y.m | x.y.k }

func (x *op) lv(fr frame) uint32 {
	return uint32(*fr.at(x.l.x))*x.l.cx + uint32(*fr.at(x.l.y))*x.l.cy + x.l.k
}

func (x *op) addr(fr frame) uint64     { return uint64(x.lv(fr)) + x.imm }
func (x *op) slotAddr(fr frame) uint64 { return uint64(uint32(*fr.at(x.a))) + x.imm }

func (x *op) sel(fr frame) {
	v := *fr.at(x.b)
	if uint32(*fr.at(x.c)) != 0 {
		v = *fr.at(x.a)
	}
	*fr.at(x.d) = v
}

// to returns the branch target the test's outcome selects.
func (x *op) to(taken bool) int {
	if taken {
		return int(x.t)
	}
	return int(x.e)
}

func (x *op) lt(fr frame) bool { return x.xv(fr)^x.imm < x.yv(fr)^x.imm }
func (x *op) eq(fr frame) bool { return x.xv(fr) == x.yv(fr) }

func f64add(x, y uint64) uint64 {
	return math.Float64bits(math.Float64frombits(x) + math.Float64frombits(y))
}
func f64sub(x, y uint64) uint64 {
	return math.Float64bits(math.Float64frombits(x) - math.Float64frombits(y))
}
func f64mul(x, y uint64) uint64 {
	return math.Float64bits(math.Float64frombits(x) * math.Float64frombits(y))
}
func f64div(x, y uint64) uint64 {
	return math.Float64bits(math.Float64frombits(x) / math.Float64frombits(y))
}

func bu(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// account runs an account op (kAccount) of function fn for the op
// behind it: with a profiler cell, it publishes (fn, class, check
// flags) with one atomic store; under cycle accounting, it charges the
// classes and the strategy's check and counts the op's dispatch.
func (inst *Instance) account(fn uint32, x *op) {
	if inst.prof != nil {
		// An elided access always shows; a checked one only under a
		// software check.
		pub := uint8(prof.FlagElided)
		if inst.ckSoft {
			pub |= prof.FlagChecked
		}
		inst.prof.Set(fn, isa.OpClass(x.a), uint8(x.c)&pub)
	}
	if !inst.count {
		return
	}
	counts := &inst.base.CycleCounts
	inst.dispatches++
	counts[x.a]++
	if x.b >= 0 {
		counts[x.b]++
	}
	if ck, on := inst.base.CheckClass(); on && x.c&int32(prof.FlagChecked) != 0 {
		counts[ck]++
	}
}

// inRange evaluates a range check's plan on the frame at base: it
// reports whether every range lies in bounds over the loop's
// iterations, in which case the check falls through to the unchecked
// copy; otherwise it branches to the checked one.
func (inst *Instance) inRange(p *rir.CheckPlan, base int) bool {
	m := inst.base.Mem
	if !m.ElisionCapable() {
		// Clamp: the guard can never pass; skip the plan evaluation and
		// run the checked copy directly.
		return false
	}
	st := inst.stack
	lo := int64(int32(uint32(st[base+p.IndSlot])))
	limit := int64(int32(p.Limit.Eval(st, base)))
	if lo < 0 || lo >= limit {
		return false
	}
	// Step 1: the loop runs limit - lo times, and the induction reaches
	// limit before it could overflow int32.
	iters := limit - lo
	for i := range p.Ranges {
		r := &p.Ranges[i]
		// The analyzer only admits addresses linear in the induction
		// value mod 2^32, so the visited addresses are exactly
		// a0 + k*Ind (mod 2^32) for k in [0, iters); a bounded total
		// span pins every interior address inside [a0, a0+total] with
		// no wraparound.
		a0 := r.Addr.Eval(st, base) + r.Ind*uint32(lo)
		total := uint64(r.Ind) * uint64(iters-1)
		if total >= 1<<32 {
			return false
		}
		first := uint64(a0) + r.Off
		if first+total+r.Width > 1<<32 {
			return false
		}
		if _, ok := m.CheckRange(first, total+r.Width, r.Write); !ok {
			return false
		}
	}
	return true
}
