package rir

import "leapsandbounds/internal/wasm"

// Lin is an i32 value that is linear in at most two frame slots,
//
//	uint32(st[X])*CX + uint32(st[Y])*CY + K   (mod 2^32),
//
// which is what i32.add, i32.sub, i32.mul by a constant and i32.shl by
// a constant compute, alone or in a chain: every index expression of
// the kernels (row-major (i*N + j) << 3 included) is one. It is the one
// address form of the IR: a folded access's address (Func.Addr), and
// a range check's ranges and loop bound (CheckPlan), which elision
// composes through Add and Scale. The form is data, so the run loop
// evaluates it inline, branch-free, from captured fields — no
// per-opcode body and no nested call. A slot whose coefficient is zero
// is still read, so it must name a valid frame slot: unused terms alias
// X, and a constant form reads slot 0.
type Lin struct {
	X, Y   int
	CX, CY uint32
	K      uint32
}

// LinSlot is the form of a plain i32 read of a slot.
func LinSlot(slot int) Lin { return Lin{X: slot, Y: slot, CX: 1} }

// Add returns p + sign*q (sign 1 adds, ^0 subtracts), or false when
// the sum has three slots.
func (p Lin) Add(q Lin, sign uint32) (Lin, bool) {
	r := Lin{K: p.K + sign*q.K}
	slots, coefs := [4]int{p.X, p.Y, q.X, q.Y}, [4]uint32{p.CX, p.CY, sign * q.CX, sign * q.CY}
	var xs [2]int
	var cs [2]uint32
	n := 0
next:
	for i, c := range coefs {
		if c == 0 {
			continue
		}
		for j := 0; j < n; j++ {
			if xs[j] == slots[i] {
				cs[j] += c
				continue next
			}
		}
		if n == 2 {
			return Lin{}, false
		}
		xs[n], cs[n] = slots[i], c
		n++
	}
	r.X, r.CX, r.Y, r.CY = xs[0], cs[0], xs[1], cs[1]
	if n < 2 {
		r.Y = r.X
	}
	return r, true
}

// Scale returns p*c.
func (p Lin) Scale(c uint32) Lin {
	return Lin{X: p.X, Y: p.Y, CX: p.CX * c, CY: p.CY * c, K: p.K * c}
}

// IsConst reports whether p reads no slot.
func (p Lin) IsConst() bool { return p.CX == 0 && p.CY == 0 }

// Then returns the value of d when its operands are read as linear
// forms: reads of slot self see p (the running value of an address
// chain; pass self < 0 for a lone op), other slots read the frame,
// immediates are constants. It reports false for an op that is not
// linear: not an i32 add/sub/mul/shl, a product or shift of two
// non-constants, or a sum over three slots.
//
// An op with two immediate operands is never linear here: Optimize
// folds every such add, sub, mul and shl into a constant.
func (p Lin) Then(d *Inst, self int) (Lin, bool) {
	if d.Shape != ShBin || d.Has(AImm|BImm) || !LinearOp(d.Op) {
		return Lin{}, false
	}
	operand := func(slot int32, isImm bool) Lin {
		switch {
		case isImm:
			return Lin{K: uint32(d.Imm)}
		case int(slot) == self:
			return p
		default:
			return LinSlot(int(slot))
		}
	}
	a, b := operand(d.A, d.Has(AImm)), operand(d.B, d.Has(BImm))
	switch d.Op {
	case wasm.OpI32Add:
		return a.Add(b, 1)
	case wasm.OpI32Sub:
		return a.Add(b, ^uint32(0))
	case wasm.OpI32Mul:
		switch {
		case b.IsConst():
			return a.Scale(b.K), true
		case a.IsConst():
			return b.Scale(a.K), true
		}
	case wasm.OpI32Shl:
		if b.IsConst() {
			return a.Scale(1 << (b.K & 31)), true
		}
	}
	return Lin{}, false
}

// LinearOp reports whether op can be linear in its operands: an i32
// add, sub, mul or shl. An analysis tests it before it evaluates an
// operand, so an op that is never linear costs nothing.
func LinearOp(op wasm.Opcode) bool {
	switch op {
	case wasm.OpI32Add, wasm.OpI32Sub, wasm.OpI32Mul, wasm.OpI32Shl:
		return true
	}
	return false
}

// LinOf returns the linear form of a single i32 ALU op.
func LinOf(d *Inst) (Lin, bool) { return Lin{}.Then(d, -1) }

// Eval evaluates the form on the frame that starts at base. A range
// check's plan is evaluated through it.
func (p *Lin) Eval(st []uint64, base int) uint32 {
	return uint32(st[base+p.X])*p.CX + uint32(st[base+p.Y])*p.CY + p.K
}
