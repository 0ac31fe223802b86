package rir

import (
	"leapsandbounds/internal/flatten"
	"leapsandbounds/internal/wasm"
)

// Optimize runs the optimization passes both compiled engines share
// over the slot IR, in one forward pass: constant folding, copy propagation of locals/constants into
// consumers, forwarding of every retargetable producer (ALU op, load,
// select, global.get, memory.size) into the local.set that follows it,
// and compare+branch fusion (an eqz counts as a compare with zero).
// It relies on the stack discipline invariant that every operand
// slot is written once and read once between two labels.
//
// Windows are delimited by labels (branch targets): inside a window
// execution is strictly linear, so a def always dominates its use.
//
// It returns the number of compare+branch pairs it fused and counts
// nothing: the caller records a compile's with RecordOptimize.
func (f *Func) Optimize(sc *Scratch) (fusedCmpBr int) {
	if sc == nil {
		sc = new(Scratch)
	}
	ir, numLocals := f.Code, int32(f.NumLocals)
	labels := f.FindLabels(sc)

	// pending maps an operand slot to the Inst that defines it, when
	// that Inst is a candidate for substitution or retargeting. It is
	// indexed by slot — slots are small and dense — and grown as slots
	// appear, from empty; hi bounds the entries that may be non-zero,
	// so emptying it at a label costs what was put in since the last
	// one.
	var (
		pending = sc.pending[:0]
		hi      int32
	)
	defer func() { sc.pending = pending }()
	// localVer invalidates local copies on reassignment.
	localVer := zeroed(&sc.localVer, int(numLocals))

	lookup := func(s int32) (int, bool) {
		if s < 0 || s >= hi || pending[s].def == 0 {
			return 0, false
		}
		return int(pending[s].def) - 1, true
	}
	set := func(s int32, di int, ver int32) {
		for int(s) >= len(pending) {
			pending = append(pending, pendingDef{})
		}
		pending[s] = pendingDef{int32(di) + 1, ver}
		hi = max(hi, s+1)
	}
	// forceKeep drops pending status without substitution.
	forceKeep := func(s int32) {
		if s >= 0 && s < hi {
			pending[s] = pendingDef{}
		}
	}
	// forceKeepFrom drops every slot at or above base.
	forceKeepFrom := func(base int32) {
		if base = max(base, 0); base < hi {
			clear(pending[base:hi])
			hi = base
		}
	}

	// use resolves a read of slot s. If the pending def is a const,
	// it returns (imm, true, defIdx). If it is a still-valid local
	// copy, it returns the local slot via retarget. Otherwise the
	// def is simply kept.
	type resolved struct {
		isImm bool
		imm   uint64
		slot  int32
		def   int // def index to delete when the substitution is used, -1 otherwise
	}
	use := func(s int32) resolved {
		di, ok := lookup(s)
		if !ok {
			return resolved{slot: s, def: -1}
		}
		ver := pending[s].ver
		pending[s] = pendingDef{}
		d := &ir[di]
		switch {
		case d.Shape == ShConst:
			return resolved{isImm: true, imm: d.Imm, def: di}
		case d.Shape == ShMove && d.A < numLocals && localVer[d.A] == ver:
			return resolved{slot: d.A, def: di}
		default:
			return resolved{slot: s, def: -1}
		}
	}

	lastAlive := -1

	for i := range ir {
		if labels[i] {
			forceKeepFrom(0)
		}
		s := &ir[i]
		switch s.Shape {
		case ShConst:
			if s.Dst >= numLocals {
				set(s.Dst, i, 0)
			}
		case ShMove:
			if s.Op == wasm.OpLocalSet && s.Dst < numLocals {
				// Forwarding: retarget an adjacent producer to write the
				// local directly.
				if di, ok := lookup(s.A); ok && di == lastAlive {
					d := &ir[di]
					if retargetable(d.Shape) {
						forceKeep(s.A)
						d.Dst = s.Dst
						s.Flags |= Dead
						s.Shape = ShNop
						localVer[s.Dst]++
						continue
					}
				}
				r := use(s.A)
				if r.isImm {
					s.Shape = ShConst
					s.Imm = r.imm
					markDead(ir, r.def)
				} else {
					s.A = r.slot
					if r.def >= 0 {
						markDead(ir, r.def)
					}
				}
				localVer[s.Dst]++
			} else if s.Op == wasm.OpLocalTee {
				// Tee writes the local and leaves the operand live;
				// the operand slot equals s.A, so nothing to track.
				forceKeep(s.A)
				localVer[s.Dst]++
			} else {
				// local.get: candidate copy.
				if s.Dst >= numLocals && s.A < numLocals {
					set(s.Dst, i, localVer[s.A])
				}
			}
		case ShUn, ShTruncSat:
			r := use(s.A)
			if r.isImm && s.Shape == ShUn && UnOps[s.Op] != nil && safeUnFold(s.Op) {
				s.Shape = ShConst
				s.Imm = UnOps[s.Op](r.imm)
				markDead(ir, r.def)
				if s.Dst >= numLocals {
					set(s.Dst, i, 0)
				}
				continue
			}
			if r.def >= 0 && !r.isImm {
				markDead(ir, r.def)
			}
			if !r.isImm {
				s.A = r.slot
			}
			// When r.isImm the const def stays alive (never marked
			// dead): unops cannot take an immediate operand, so the
			// consumer keeps reading the slot the const writes.
		case ShBin:
			rb := use(s.B)
			ra := use(s.A)
			if ra.isImm && rb.isImm && FoldableBin[s.Op] {
				s.Shape = ShConst
				s.Imm = BinOps[s.Op](ra.imm, rb.imm)
				markDead(ir, ra.def)
				markDead(ir, rb.def)
				if s.Dst >= numLocals {
					set(s.Dst, i, 0)
				}
				continue
			}
			if ra.isImm {
				s.Flags |= AImm
				markDead(ir, ra.def)
			} else {
				s.A = ra.slot
				if ra.def >= 0 {
					markDead(ir, ra.def)
				}
			}
			if rb.isImm {
				s.Flags |= BImm
				markDead(ir, rb.def)
			} else {
				s.B = rb.slot
				if rb.def >= 0 {
					markDead(ir, rb.def)
				}
			}
			f.SetImms(s, ra.imm, rb.imm)
		case ShLoad:
			r := use(s.A)
			if r.isImm {
				// Fold the constant address into the static offset.
				s.Off += uint64(uint32(r.imm))
				s.Flags |= AImm
				markDead(ir, r.def)
			} else {
				s.A = r.slot
				if r.def >= 0 {
					markDead(ir, r.def)
				}
			}
		case ShStore:
			rb := use(s.B)
			ra := use(s.A)
			if ra.isImm {
				s.Off += uint64(uint32(ra.imm))
				s.Flags |= AImm
				markDead(ir, ra.def)
			} else {
				s.A = ra.slot
				if ra.def >= 0 {
					markDead(ir, ra.def)
				}
			}
			if rb.isImm {
				s.Flags |= BImm
				s.Imm = rb.imm
				markDead(ir, rb.def)
			} else {
				s.B = rb.slot
				if rb.def >= 0 {
					markDead(ir, rb.def)
				}
			}
		case ShIfFalse, ShBranchIf:
			carrySrc, _ := f.Carry(s)
			if carrySrc >= 0 {
				forceKeep(int32(carrySrc))
			}
			if di, ok := lookup(s.A); ok && di == lastAlive {
				d := &ir[di]
				// A compare, or an eqz (a compare against zero), feeding
				// the branch becomes the branch's own condition.
				cmp, isCmp := d.Op, d.Shape == ShBin && CmpBranchOps[d.Op]
				if eq := eqzCompare[d.Op]; eq != 0 && d.Shape == ShUn {
					cmp, isCmp = eq, true
				}
				if isCmp && carrySrc < 0 {
					forceKeep(s.A)
					s.Shape = ShCmpBranch
					s.CmpOp = cmp
					if ir[i].Op != flatten.OpIfFalse {
						s.Flags |= BrOnTrue
					}
					// The operands, immediates and cold second immediate
					// are the compare's; an eqz compares A with zero.
					s.A, s.B, s.Imm, s.Side = d.A, d.B, d.Imm, d.Side
					s.Flags = s.Flags&^(AImm|BImm) | d.Flags&(AImm|BImm)
					if d.Shape == ShUn {
						s.B, s.Imm, s.Side = 0, 0, 0
						s.Flags = s.Flags&^AImm | BImm
					}
					markDead(ir, di)
					fusedCmpBr++
					lastAlive = i
					continue
				}
			}
			r := use(s.A)
			if !r.isImm {
				s.A = r.slot
				if r.def >= 0 {
					markDead(ir, r.def)
				}
			}
			// Immediate conditions keep their const def alive (the
			// branch reads the slot it writes).
		case ShJump, ShReturn:
			if carrySrc, _ := f.Carry(s); carrySrc >= 0 {
				forceKeep(int32(carrySrc))
			}
		case ShBrTable:
			forceKeep(s.A)
			forceKeep(f.Table(s).CarrySrc)
		case ShCall, ShCallInd:
			// Arguments are read in place by the callee: every
			// pending def at or above argBase must materialize.
			forceKeepFrom(f.Call(s).ArgBase)
			if s.Shape == ShCallInd {
				forceKeep(s.A)
			}
		case ShSelect:
			forceKeep(s.A)
			forceKeep(s.B)
			c := &f.cs[s.Side-1]
			r := use(*c)
			if !r.isImm {
				*c = r.slot
				if r.def >= 0 {
					markDead(ir, r.def)
				}
			}
			// Immediate conditions keep their const def alive.
		case ShGlobalSet, ShMemGrow:
			forceKeep(s.A)
		case ShMemCopy, ShMemFill:
			forceKeep(s.A)
			forceKeep(s.B)
			forceKeep(f.cs[s.Side-1])
		}
		if retargetable(s.Shape) && s.Dst >= numLocals {
			// A producer into an operand slot: a local.set right behind
			// it takes over its destination, and a compare (or eqz)
			// becomes the condition of the branch behind it.
			set(s.Dst, i, 0)
		}
		if !s.Has(Dead) {
			lastAlive = i
		}
	}
	return fusedCmpBr
}

// pendingDef is Optimize's entry for an operand slot: def is the index
// of the Inst that defines it plus one (0: not pending), ver the
// version its source local had there, for a local.get.
type pendingDef struct{ def, ver int32 }

// eqzCompare maps the unary zero tests to the compare they are with a
// zero right-hand side (0, which is no compare, for every other op).
var eqzCompare = [256]wasm.Opcode{
	wasm.OpI32Eqz: wasm.OpI32Eq,
	wasm.OpI64Eqz: wasm.OpI64Eq,
}

// retargetable reports whether a producer's dst can be redirected to
// a local slot (forwarding into local.set).
func retargetable(sh Shape) bool {
	switch sh {
	case ShBin, ShUn, ShLoad, ShSelect, ShGlobalGet, ShTruncSat, ShMemSize:
		return true
	default:
		return false
	}
}

// safeUnFold lists unary ops safe to constant-fold (no traps).
func safeUnFold(op wasm.Opcode) bool {
	switch op {
	case wasm.OpI32TruncF32S, wasm.OpI32TruncF32U, wasm.OpI32TruncF64S,
		wasm.OpI32TruncF64U, wasm.OpI64TruncF32S, wasm.OpI64TruncF32U,
		wasm.OpI64TruncF64S, wasm.OpI64TruncF64U:
		return false
	default:
		return true
	}
}

// markDead marks a def for deletion (no-op for def == -1).
func markDead(ir []Inst, def int) {
	if def >= 0 {
		ir[def].Flags |= Dead
		ir[def].Shape = ShNop
	}
}

// Compact removes dead instructions in place, remapping branch
// targets: f.Code becomes the shortened prefix of its own array. Both
// engines run it after Optimize.
func (f *Func) Compact(sc *Scratch) {
	if sc == nil {
		sc = new(Scratch)
	}
	ir := f.Code
	remap := zeroed(&sc.remap, len(ir)+1)
	n := int32(0)
	for i := range ir {
		remap[i] = n
		if !ir[i].Has(Dead) {
			n++
		}
	}
	remap[len(ir)] = n

	for i := range ir {
		if ir[i].Has(Dead) {
			continue
		}
		// remap[i] <= i, and every slot below i has already been moved
		// or dropped, so the move never overwrites a live instruction.
		s := &ir[remap[i]]
		if int(remap[i]) != i {
			*s = ir[i]
		}
		f.RewriteTargets(s, func(t int32) int32 { return remap[t] })
	}
	f.Code = ir[:n]
}
