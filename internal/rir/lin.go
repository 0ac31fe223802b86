package rir

import "leapsandbounds/internal/wasm"

// Lin is an i32 value that is linear in at most two frame slots,
//
//	uint32(st[X])*CX + uint32(st[Y])*CY + K   (mod 2^32),
//
// which is what i32.add, i32.sub, i32.mul by a constant and i32.shl by
// a constant compute, alone or in a chain: every index expression of
// the kernels (row-major (i*N + j) << 3 included) is one. The form is
// data, so a closure evaluates it inline, branch-free, from captured
// fields — no per-opcode body and no nested call. A slot whose
// coefficient is zero is still read, so it must name a valid frame
// slot: unused terms alias X, and a constant form reads slot 0.
type Lin struct {
	X, Y   int
	CX, CY uint32
	K      uint32
}

// LinSlot is the form of a plain i32 read of a slot.
func LinSlot(slot int) Lin { return Lin{X: slot, Y: slot, CX: 1} }

// add returns p + sign*q, or false when the sum has three slots.
func (p Lin) add(q Lin, sign uint32) (Lin, bool) {
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

// scale returns p*c.
func (p Lin) scale(c uint32) Lin {
	return Lin{X: p.X, Y: p.Y, CX: p.CX * c, CY: p.CY * c, K: p.K * c}
}

func (p Lin) isConst() bool { return p.CX == 0 && p.CY == 0 }

// Then returns the value of d when its operands are read as linear
// forms: reads of slot self see p (the running value of an address
// chain; pass self < 0 for a lone op), other slots read the frame,
// immediates are constants. It reports false for an op that is not
// linear: not an i32 add/sub/mul/shl, a product or shift of two
// non-constants, or a sum over three slots.
func (p Lin) Then(d *Inst, self int) (Lin, bool) {
	if d.Shape != ShBin {
		return Lin{}, false
	}
	operand := func(slot int, isImm bool, imm uint64) Lin {
		switch {
		case isImm:
			return Lin{K: uint32(imm)}
		case slot == self:
			return p
		default:
			return LinSlot(slot)
		}
	}
	a, b := operand(d.A, d.AImm, d.ImmA), operand(d.B, d.BImm, d.ImmB)
	switch d.Op {
	case wasm.OpI32Add:
		return a.add(b, 1)
	case wasm.OpI32Sub:
		return a.add(b, ^uint32(0))
	case wasm.OpI32Mul:
		switch {
		case b.isConst():
			return a.scale(b.K), true
		case a.isConst():
			return b.scale(a.K), true
		}
	case wasm.OpI32Shl:
		if b.isConst() {
			return a.scale(1 << (b.K & 31)), true
		}
	}
	return Lin{}, false
}

// LinOf returns the linear form of a single i32 ALU op.
func LinOf(d *Inst) (Lin, bool) { return Lin{}.Then(d, -1) }

// Eval evaluates the form on the frame that starts at base. The
// emitter's closures inline it: the form is captured data and this is
// the one body that reads it.
func (p *Lin) Eval(st []uint64, base int) uint32 {
	return uint32(st[base+p.X])*p.CX + uint32(st[base+p.Y])*p.CY + p.K
}

// EvalFwd is Eval with v in place of the frame read of slot X: the
// second half of a fused pair takes the first half's value in a
// register (Forward puts the slot it wrote in X).
func (p *Lin) EvalFwd(st []uint64, base int, v uint64) uint32 {
	return uint32(v)*p.CX + uint32(st[base+p.Y])*p.CY + p.K
}

// Forward returns the form with its terms ordered so that X is the one
// over slot fwd, for EvalFwd; the other term then does not read that
// slot either.
func (p Lin) Forward(fwd int) Lin {
	if p.X != fwd {
		p.X, p.Y, p.CX, p.CY = p.Y, p.X, p.CY, p.CX
	}
	if p.Y == fwd {
		p.Y, p.CY = 0, 0
	}
	return p
}
