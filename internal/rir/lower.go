package rir

// InstWrites calls f for every frame slot s may write. Calls clobber
// the callee frame, i.e. everything at or above ArgBase; that is
// reported separately through clob (the smallest such base, or -1).
func InstWrites(s *Inst, f func(slot int)) (clob int) {
	clob = -1
	switch s.Shape {
	case ShConst, ShMove, ShUn, ShBin, ShSelect, ShLoad, ShGlobalGet,
		ShMemSize, ShMemGrow, ShTruncSat:
		f(s.Dst)
	case ShJump, ShBranchIf:
		if s.CarrySrc >= 0 {
			f(s.CarryDst)
		}
	case ShBrTable:
		for _, bt := range s.Table {
			if bt.Arity > 0 {
				f(int(bt.PopTo))
			}
		}
	case ShCall, ShCallInd:
		clob = s.ArgBase
	case ShLoadOp, ShOpStore, ShPair, ShPairBr:
		for i := range s.Pair {
			InstWrites(&s.Pair[i], f)
		}
	}
	return clob
}

// InstReads calls f for every frame slot s reads, for the
// straight-line shapes address-chain fusion treats as transparent and
// the compare+branch the late pass fuses producers into (other branch
// and call shapes track their reads elsewhere). An access with a
// folded address chain reads the chain's slots, not its address slot.
func InstReads(s *Inst, f func(slot int)) {
	addr := func() {
		switch {
		case s.Addr != nil:
			f(s.Addr.X)
			f(s.Addr.Y)
		case !s.AImm:
			f(s.A)
		}
	}
	switch s.Shape {
	case ShMove, ShUn, ShTruncSat, ShGlobalSet:
		f(s.A)
	case ShBin, ShCmpBranch:
		if !s.AImm {
			f(s.A)
		}
		if !s.BImm {
			f(s.B)
		}
	case ShSelect:
		f(s.A)
		f(s.B)
		f(s.C)
	case ShLoad:
		addr()
	case ShStore:
		addr()
		if !s.BImm {
			f(s.B)
		}
	case ShMemGrow:
		f(s.A)
	case ShMemCopy, ShMemFill:
		f(s.A)
		f(s.B)
		f(s.C)
	case ShLoadOp, ShOpStore, ShPair:
		for i := range s.Pair {
			InstReads(&s.Pair[i], f)
		}
	}
}

// visitSlots calls f with a pointer to every register-index field the
// instruction actually uses (defs and uses alike), so a renumbering
// can be applied in place. Immediate operands are skipped; branch
// targets are pcs, not registers, and are never visited.
func visitSlots(s *Inst, f func(p *int)) {
	switch s.Shape {
	case ShConst, ShGlobalGet, ShMemSize:
		f(&s.Dst)
	case ShMove, ShUn, ShTruncSat:
		f(&s.A)
		f(&s.Dst)
	case ShBin:
		if !s.AImm {
			f(&s.A)
		}
		if !s.BImm {
			f(&s.B)
		}
		f(&s.Dst)
	case ShSelect:
		f(&s.A)
		f(&s.B)
		f(&s.C)
		f(&s.Dst)
	case ShLoad:
		if !s.AImm {
			f(&s.A)
		}
		f(&s.Dst)
	case ShStore:
		if !s.AImm {
			f(&s.A)
		}
		if !s.BImm {
			f(&s.B)
		}
	case ShJump:
		if s.CarrySrc >= 0 {
			f(&s.CarrySrc)
			f(&s.CarryDst)
		}
	case ShIfFalse:
		f(&s.A)
	case ShBranchIf:
		f(&s.A)
		if s.CarrySrc >= 0 {
			f(&s.CarrySrc)
			f(&s.CarryDst)
		}
	case ShCmpBranch:
		if !s.AImm {
			f(&s.A)
		}
		if !s.BImm {
			f(&s.B)
		}
	case ShBrTable:
		f(&s.A)
		if s.CarrySrc >= 0 {
			f(&s.CarrySrc)
		}
		for k := range s.Table {
			if s.Table[k].Arity > 0 {
				v := int(s.Table[k].PopTo)
				f(&v)
				s.Table[k].PopTo = int32(v)
			}
		}
	case ShReturn:
		if s.CarrySrc >= 0 {
			f(&s.CarrySrc)
		}
	case ShCallInd:
		f(&s.A)
	case ShGlobalSet:
		f(&s.A)
	case ShMemGrow:
		f(&s.A)
		f(&s.Dst)
	case ShMemCopy, ShMemFill:
		f(&s.A)
		f(&s.B)
		f(&s.C)
	}
}

// Lower renumbers the operand slots of an optimized, compacted IR
// into a dense virtual-register file and returns the register count.
// After Optimize has deleted the push/pop traffic, the surviving
// operand slots are sparse across the stack-height range; Lower maps
// them, order-preserving, onto registers numLocals, numLocals+1, …
// so the frame shrinks from locals+maxStack to locals+regs.
//
// Order preservation is what keeps calls correct without special
// cases: a call's argument window [ArgBase, ArgBase+NArgs) is marked
// used as a block, so consecutive used slots map to consecutive
// registers and the window stays contiguous; values live across the
// call occupy slots below ArgBase and therefore map below the new
// ArgBase, out of the callee frame's way. Locals are untouched.
//
// Lower must run before bounds-check elision: the elision passes
// capture raw register indices inside CheckPlan closures and
// address-mode chains, which a later renumbering could not reach.
func Lower(ir []Inst, numLocals int) ([]Inst, int) {
	// reg is indexed by operand slot less numLocals, grown as slots
	// appear: first 1 for a slot in use, then — a prefix sum over it,
	// index order being slot order — the register that slot becomes.
	var reg []int
	mark := func(slot int) {
		if slot < numLocals {
			return
		}
		for slot-numLocals >= len(reg) {
			reg = append(reg, 0)
		}
		reg[slot-numLocals] = 1
	}
	for i := range ir {
		s := &ir[i]
		visitSlots(s, func(p *int) { mark(*p) })
		if s.Shape == ShCall || s.Shape == ShCallInd {
			w := int(s.NArgs)
			if int(s.Results) > w {
				w = int(s.Results)
			}
			if w < 1 {
				w = 1 // keep ArgBase itself mapped for the callee frame base
			}
			for k := 0; k < w; k++ {
				mark(s.ArgBase + k)
			}
		}
	}

	regs := 0
	for k, used := range reg {
		reg[k] = numLocals + regs
		regs += used
	}

	renum := func(p *int) {
		if *p >= numLocals {
			*p = reg[*p-numLocals]
		}
	}
	for i := range ir {
		s := &ir[i]
		visitSlots(s, renum)
		if s.Shape == ShCall || s.Shape == ShCallInd {
			base := s.ArgBase
			renum(&base)
			s.ArgBase = base
		}
	}
	return ir, regs
}
