package rir

import (
	"leapsandbounds/internal/flatten"
	"leapsandbounds/internal/wasm"
)

// Optimize runs the WAVM-analog optimization passes over the slot
// IR: constant folding, copy propagation of locals/constants into
// consumers, forwarding of every retargetable producer (ALU op, load,
// select, global.get, memory.size) into the local.set that follows it,
// and compare+branch fusion (an eqz counts as a compare with zero).
// It relies on the stack discipline invariant that every operand
// slot is written once and read once between two labels.
//
// Windows are delimited by labels (branch targets): inside a window
// execution is strictly linear, so a def always dominates its use.
func Optimize(ir []Inst, numLocals int) []Inst {
	labels := FindLabels(ir)

	// pending maps an operand slot to the Inst that defines it, when
	// that Inst is a candidate for substitution or retargeting: def is
	// the Inst's index plus one (0: not pending), ver the version its
	// source local had there, for a local.get. It is indexed by slot —
	// slots are small and dense — and grown as slots appear; hi bounds
	// the entries that may be non-zero, so emptying it at a label costs
	// what was put in since the last one.
	type def struct{ def, ver int32 }
	var (
		pending []def
		hi      int
	)
	// localVer invalidates local copies on reassignment.
	localVer := make([]int32, numLocals)

	lookup := func(s int) (int, bool) {
		if s < 0 || s >= hi || pending[s].def == 0 {
			return 0, false
		}
		return int(pending[s].def) - 1, true
	}
	set := func(s, di int, ver int32) {
		for s >= len(pending) {
			pending = append(pending, def{})
		}
		pending[s] = def{int32(di) + 1, ver}
		hi = max(hi, s+1)
	}
	// forceKeep drops pending status without substitution.
	forceKeep := func(s int) {
		if s >= 0 && s < hi {
			pending[s] = def{}
		}
	}
	// forceKeepFrom drops every slot at or above base.
	forceKeepFrom := func(base int) {
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
		slot  int
		def   int // def index to delete when the substitution is used, -1 otherwise
	}
	use := func(s int) resolved {
		di, ok := lookup(s)
		if !ok {
			return resolved{slot: s, def: -1}
		}
		ver := pending[s].ver
		pending[s] = def{}
		d := &ir[di]
		switch {
		case d.Shape == ShConst:
			return resolved{isImm: true, imm: d.ImmA, def: di}
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
						s.Dead = true
						s.Shape = ShNop
						localVer[s.Dst]++
						continue
					}
				}
				r := use(s.A)
				if r.isImm {
					s.Shape = ShConst
					s.ImmA = r.imm
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
			if r.isImm && s.Shape == ShUn && UnOps[s.Op] != nil && SafeUnFold(s.Op) {
				s.Shape = ShConst
				s.ImmA = UnOps[s.Op](r.imm)
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
				s.ImmA = BinOps[s.Op](ra.imm, rb.imm)
				markDead(ir, ra.def)
				markDead(ir, rb.def)
				if s.Dst >= numLocals {
					set(s.Dst, i, 0)
				}
				continue
			}
			if ra.isImm {
				s.AImm = true
				s.ImmA = ra.imm
				markDead(ir, ra.def)
			} else {
				s.A = ra.slot
				if ra.def >= 0 {
					markDead(ir, ra.def)
				}
			}
			if rb.isImm {
				s.BImm = true
				s.ImmB = rb.imm
				markDead(ir, rb.def)
			} else {
				s.B = rb.slot
				if rb.def >= 0 {
					markDead(ir, rb.def)
				}
			}
		case ShLoad:
			r := use(s.A)
			if r.isImm {
				// Fold the constant address into the static offset.
				s.Off += uint64(uint32(r.imm))
				s.AImm = true
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
				s.AImm = true
				markDead(ir, ra.def)
			} else {
				s.A = ra.slot
				if ra.def >= 0 {
					markDead(ir, ra.def)
				}
			}
			if rb.isImm {
				s.BImm = true
				s.ImmB = rb.imm
				markDead(ir, rb.def)
			} else {
				s.B = rb.slot
				if rb.def >= 0 {
					markDead(ir, rb.def)
				}
			}
		case ShIfFalse, ShBranchIf:
			if s.CarrySrc >= 0 {
				forceKeep(s.CarrySrc)
			}
			if di, ok := lookup(s.A); ok && di == lastAlive {
				d := &ir[di]
				// A compare, or an eqz (a compare against zero), feeding
				// the branch becomes the branch's own condition.
				cmp, isCmp := d.Op, d.Shape == ShBin && CmpBranchOps[d.Op]
				if eq := eqzCompare[d.Op]; eq != 0 && d.Shape == ShUn {
					cmp, isCmp = eq, true
				}
				if isCmp && s.CarrySrc < 0 {
					forceKeep(s.A)
					s.Shape = ShCmpBranch
					s.CmpOp = cmp
					s.BrOnTrue = ir[i].Op != flatten.OpIfFalse
					s.A, s.AImm, s.ImmA = d.A, d.AImm, d.ImmA
					s.B, s.BImm, s.ImmB = d.B, d.BImm, d.ImmB
					if d.Shape == ShUn {
						s.B, s.BImm, s.ImmB = 0, true, 0
					}
					markDead(ir, di)
					rirFusedCmpBr.Inc()
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
		case ShJump:
			if s.CarrySrc >= 0 {
				forceKeep(s.CarrySrc)
			}
		case ShReturn:
			if s.CarrySrc >= 0 {
				forceKeep(s.CarrySrc)
			}
		case ShBrTable:
			forceKeep(s.A)
			forceKeep(s.CarrySrc)
		case ShCall, ShCallInd:
			// Arguments are read in place by the callee: every
			// pending def at or above argBase must materialize.
			forceKeepFrom(s.ArgBase)
			if s.Shape == ShCallInd {
				forceKeep(s.A)
			}
		case ShSelect:
			forceKeep(s.A)
			forceKeep(s.B)
			r := use(s.C)
			if !r.isImm {
				s.C = r.slot
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
			forceKeep(s.C)
		}
		if retargetable(s.Shape) && s.Dst >= numLocals {
			// A producer into an operand slot: a local.set right behind
			// it takes over its destination, and a compare (or eqz)
			// becomes the condition of the branch behind it.
			set(s.Dst, i, 0)
		}
		if !s.Dead {
			lastAlive = i
		}
	}
	return ir
}

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

// SafeUnFold lists unary ops safe to constant-fold (no traps).
func SafeUnFold(op wasm.Opcode) bool {
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
		ir[def].Dead = true
		ir[def].Shape = ShNop
	}
}

// FindLabels returns the set of pcs that are branch targets. Range
// checks count: their failure edge enters the slow clone, so any pass
// that requires label-free straight-line runs (EBB coalescing, late
// pair fusion) must flush at a check's target exactly as it would at
// a branch target.
func FindLabels(ir []Inst) []bool {
	labels := make([]bool, len(ir)+1)
	for i := range ir {
		s := &ir[i]
		switch s.Shape {
		case ShJump, ShIfFalse, ShBranchIf, ShCmpBranch, ShPairBr, ShRangeCheck:
			labels[s.Tgt] = true
			if s.HasElse {
				labels[s.Else] = true
			}
		case ShBrTable:
			for _, bt := range s.Table {
				labels[bt.Tgt] = true
			}
		}
	}
	return labels[:len(ir)]
}

// RewriteTargets applies f to every branch target of s. A br_table
// gets a fresh target table rather than a rewritten one, because a
// shallow copy of the IR — the compiled engines keep one for the
// artifact tier — shares its tables.
func (s *Inst) RewriteTargets(f func(int32) int32) {
	switch s.Shape {
	case ShJump, ShIfFalse, ShBranchIf, ShCmpBranch, ShPairBr, ShRangeCheck:
		s.Tgt = f(s.Tgt)
		if s.HasElse {
			s.Else = f(s.Else)
		}
	case ShBrTable:
		tbl := make([]flatten.BranchTarget, len(s.Table))
		for k, bt := range s.Table {
			bt.Tgt = f(bt.Tgt)
			tbl[k] = bt
		}
		s.Table = tbl
	}
}

// Compact removes dead instructions in place, remapping branch
// targets, and returns the shortened prefix of ir: the caller's slice
// is consumed. Both engines run it (the baseline engine only
// accumulates dead drops).
func Compact(ir []Inst) []Inst {
	remap := make([]int32, len(ir)+1)
	n := int32(0)
	for i := range ir {
		remap[i] = n
		if !ir[i].Dead {
			n++
		}
	}
	remap[len(ir)] = n

	for i := range ir {
		if ir[i].Dead {
			continue
		}
		// remap[i] <= i, and every slot below i has already been moved
		// or dropped, so the move never overwrites a live instruction.
		s := &ir[remap[i]]
		if int(remap[i]) != i {
			*s = ir[i]
		}
		s.RewriteTargets(func(t int32) int32 { return remap[t] })
	}
	return ir[:n]
}
