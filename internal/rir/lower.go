package rir

// InstWrites calls fn for every frame slot s may write. Calls clobber
// the callee frame, i.e. everything at or above ArgBase; that is
// reported separately through clob (the smallest such base, or -1).
func (f *Func) InstWrites(s *Inst, fn func(slot int)) (clob int) {
	clob = -1
	switch s.Shape {
	case ShConst, ShMove, ShUn, ShBin, ShSelect, ShLoad, ShGlobalGet,
		ShMemSize, ShMemGrow, ShTruncSat:
		fn(int(s.Dst))
	case ShJump, ShBranchIf:
		if src, dst := f.Carry(s); src >= 0 {
			fn(dst)
		}
	case ShBrTable:
		for _, bt := range f.Table(s).Targets {
			if bt.Arity > 0 {
				fn(int(bt.PopTo))
			}
		}
	case ShCall, ShCallInd:
		clob = int(f.Call(s).ArgBase)
	case ShLoadOp, ShOpStore, ShPair, ShPairBr:
		p := f.Pair(s)
		for i := range p {
			f.InstWrites(&p[i], fn)
		}
	}
	return clob
}

// InstReads calls fn for every frame slot s reads, for the
// straight-line shapes address-chain fusion treats as transparent and
// the compare+branch the late pass fuses producers into (other branch
// and call shapes track their reads elsewhere). An access with a
// folded address chain reads the chain's slots, not its address slot.
func (f *Func) InstReads(s *Inst, fn func(slot int)) {
	addr := func() {
		switch l := f.Addr(s); {
		case l != nil:
			fn(l.X)
			fn(l.Y)
		case !s.Has(AImm):
			fn(int(s.A))
		}
	}
	switch s.Shape {
	case ShMove, ShUn, ShTruncSat, ShGlobalSet:
		fn(int(s.A))
	case ShBin, ShCmpBranch:
		if !s.Has(AImm) {
			fn(int(s.A))
		}
		if !s.Has(BImm) {
			fn(int(s.B))
		}
	case ShSelect:
		fn(int(s.A))
		fn(int(s.B))
		fn(f.C(s))
	case ShLoad:
		addr()
	case ShStore:
		addr()
		if !s.Has(BImm) {
			fn(int(s.B))
		}
	case ShMemGrow:
		fn(int(s.A))
	case ShMemCopy, ShMemFill:
		fn(int(s.A))
		fn(int(s.B))
		fn(f.C(s))
	case ShLoadOp, ShOpStore, ShPair:
		p := f.Pair(s)
		for i := range p {
			f.InstReads(&p[i], fn)
		}
	}
}

// visitSlots calls fn with a pointer to every register-index field the
// instruction actually uses (defs and uses alike), so a renumbering
// can be applied in place — in the cold tables too, which is why it
// runs only before any copy of the ops shares them. Immediate operands
// are skipped; branch targets are pcs, not registers, and are never
// visited.
func (f *Func) visitSlots(s *Inst, fn func(p *int32)) {
	carry := func() {
		if s.Side != 0 {
			c := &f.carries[s.Side-1]
			fn(&c.Src)
			if s.Shape != ShReturn {
				fn(&c.Dst)
			}
		}
	}
	switch s.Shape {
	case ShConst, ShGlobalGet, ShMemSize:
		fn(&s.Dst)
	case ShMove, ShUn, ShTruncSat:
		fn(&s.A)
		fn(&s.Dst)
	case ShBin:
		if !s.Has(AImm) {
			fn(&s.A)
		}
		if !s.Has(BImm) {
			fn(&s.B)
		}
		fn(&s.Dst)
	case ShSelect:
		fn(&s.A)
		fn(&s.B)
		fn(&f.cs[s.Side-1])
		fn(&s.Dst)
	case ShLoad:
		if !s.Has(AImm) {
			fn(&s.A)
		}
		fn(&s.Dst)
	case ShStore:
		if !s.Has(AImm) {
			fn(&s.A)
		}
		if !s.Has(BImm) {
			fn(&s.B)
		}
	case ShJump:
		carry()
	case ShIfFalse:
		fn(&s.A)
	case ShBranchIf:
		fn(&s.A)
		carry()
	case ShCmpBranch:
		if !s.Has(AImm) {
			fn(&s.A)
		}
		if !s.Has(BImm) {
			fn(&s.B)
		}
	case ShBrTable:
		fn(&s.A)
		t := f.Table(s)
		if t.CarrySrc >= 0 {
			fn(&t.CarrySrc)
		}
		for k := range t.Targets {
			if t.Targets[k].Arity > 0 {
				fn(&t.Targets[k].PopTo)
			}
		}
	case ShReturn:
		carry()
	case ShCallInd:
		fn(&s.A)
	case ShGlobalSet:
		fn(&s.A)
	case ShMemGrow:
		fn(&s.A)
		fn(&s.Dst)
	case ShMemCopy, ShMemFill:
		fn(&s.A)
		fn(&s.B)
		fn(&f.cs[s.Side-1])
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
// capture raw register indices in CheckPlan ranges and address-mode
// chains, which a later renumbering could not reach.
func (f *Func) Lower(sc *Scratch) int {
	if sc == nil {
		sc = new(Scratch)
	}
	numLocals := int32(f.NumLocals)
	// reg is indexed by operand slot less numLocals, grown from empty as
	// slots appear: first 1 for a slot in use, then — a prefix sum over
	// it, index order being slot order — the register that slot
	// becomes.
	reg := sc.reg[:0]
	defer func() { sc.reg = reg }()
	mark := func(slot int32) {
		if slot < numLocals {
			return
		}
		for int(slot-numLocals) >= len(reg) {
			reg = append(reg, 0)
		}
		reg[slot-numLocals] = 1
	}
	for i := range f.Code {
		s := &f.Code[i]
		f.visitSlots(s, func(p *int32) { mark(*p) })
		if s.Shape == ShCall || s.Shape == ShCallInd {
			c := f.Call(s)
			w := max(int32(c.NArgs), int32(c.Results), 1) // at least ArgBase itself, the callee frame base
			for k := int32(0); k < w; k++ {
				mark(c.ArgBase + k)
			}
		}
	}

	regs := int32(0)
	for k, used := range reg {
		reg[k] = numLocals + regs
		regs += used
	}

	renum := func(p *int32) {
		if *p >= numLocals {
			*p = reg[*p-numLocals]
		}
	}
	for i := range f.Code {
		s := &f.Code[i]
		f.visitSlots(s, renum)
		if s.Shape == ShCall || s.Shape == ShCallInd {
			renum(&f.Call(s).ArgBase)
		}
	}
	return int(regs)
}
