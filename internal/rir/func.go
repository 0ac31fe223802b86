package rir

import "leapsandbounds/internal/flatten"

// Func is one function's register IR: the stream of hot ops and the
// cold tables its ops reach through Inst.Side, one table per kind of
// payload, the op's Shape naming which:
//
//	carries  ShJump, ShBranchIf, ShReturn that carry a value
//	calls    ShCall, ShCallInd
//	tables   ShBrTable
//	cs       ShSelect's condition, ShMemCopy's and ShMemFill's length
//	immBs    ShBin, ShCmpBranch with two immediate operands: B's
//	addrs    ShLoad, ShStore with a folded address chain
//	checks   ShRangeCheck
//	pairs    ShLoadOp, ShOpStore, ShPair, ShPairBr: the two halves
//
// Versioning copies a loop's ops, and the copies share their cold
// entries, so a pass that changes an op's cold payload after the front
// half gives the op a new entry instead of writing the old one: Compact
// and every other target rewrite get a fresh branch table
// (RewriteTargets). Only Optimize and Lower, which run before any copy
// is taken, write entries in place.
type Func struct {
	Code      []Inst
	NumLocals int
	cold
}

type cold struct {
	carries []Carry
	calls   []Call
	tables  []BrTable
	cs      []int32
	immBs   []uint64
	addrs   []Lin
	checks  []CheckPlan
	pairs   [][2]Inst
}

// Carry is the value a branch moves on its taken edge: slot Src into
// slot Dst (a return moves Src into the frame's first slot).
type Carry struct{ Src, Dst int32 }

// Call is a call's cold payload.
type Call struct {
	Fidx    uint32 // function index / type index
	ArgBase int32  // first argument slot
	NArgs   int8   // argument count (register window above ArgBase)
	Results int8
}

// BrTable is a br_table's cold payload: its targets (the default last,
// PopTo pre-translated to a slot) and the slot below the index, which
// a target of non-zero arity receives at its PopTo.
type BrTable struct {
	Targets  []flatten.BranchTarget
	CarrySrc int32
}

// CheckPlan is the payload of a ShRangeCheck guard emitted by
// bounds-check elision, which is loop versioning: the ranges that must
// all lie in bounds for the guard to fall through. Every plan guards a
// counted loop whose induction, in slot IndSlot, starts at its value
// at the guard and steps by 1 while it stays below Limit; its ranges
// advance with the induction.
type CheckPlan struct {
	Ranges  []LoopRange
	IndSlot int
	Limit   Lin
}

// LoopRange is one range a guard proves: at induction value v the
// access reads or writes Width bytes from uint32(Addr + Ind*v) + Off.
// Addr is linear in loop-invariant slots only; the
// induction's term is Ind, so a range is the induction plus at most
// two invariant slots, and over a loop's iterations its addresses are
// the arithmetic sequence a0 + k*Ind.
type LoopRange struct {
	Addr       Lin
	Ind        uint32
	Off, Width uint64
	Write      bool
}

// add appends v to a cold table and returns its Side index.
func add[T any](t *[]T, v T) int32 {
	*t = append(*t, v)
	return int32(len(*t))
}

// Carry returns the slot s, a jump, branch or return, carries and the
// slot it lands in; src is -1 when it carries nothing.
func (f *Func) Carry(s *Inst) (src, dst int) {
	if s.Side == 0 {
		return -1, 0
	}
	c := &f.carries[s.Side-1]
	return int(c.Src), int(c.Dst)
}

// SetCarry makes s, a jump, branch or return, carry slot src into dst.
func (f *Func) SetCarry(s *Inst, src, dst int32) { s.Side = add(&f.carries, Carry{src, dst}) }

// Call returns a call's payload.
func (f *Func) Call(s *Inst) *Call { return &f.calls[s.Side-1] }

// SetCall gives the call s its payload.
func (f *Func) SetCall(s *Inst, c Call) { s.Side = add(&f.calls, c) }

// Table returns a br_table's payload.
func (f *Func) Table(s *Inst) *BrTable { return &f.tables[s.Side-1] }

// SetTable gives the br_table s its payload.
func (f *Func) SetTable(s *Inst, t BrTable) { s.Side = add(&f.tables, t) }

// C returns the third operand of a select (its condition) or of
// memory.copy / memory.fill (the length).
func (f *Func) C(s *Inst) int { return int(f.cs[s.Side-1]) }

// SetC gives s its third operand.
func (f *Func) SetC(s *Inst, c int32) { s.Side = add(&f.cs, c) }

// ImmB returns operand B's immediate (s has BImm set): in Imm, unless
// A's is there.
func (f *Func) ImmB(s *Inst) uint64 {
	if s.immA() && s.Has(BImm) {
		return f.immBs[s.Side-1]
	}
	return s.Imm
}

// SetImms stores the immediates of an op's operands where its AImm and
// BImm flags, already set, say they live; a value whose flag is clear,
// or a load's or store's A, is ignored.
func (f *Func) SetImms(s *Inst, a, b uint64) {
	switch {
	case s.immA() && s.Has(BImm):
		s.Imm = a
		s.Side = add(&f.immBs, b)
	case s.immA():
		s.Imm = a
	case s.Has(BImm):
		s.Imm = b
	}
}

// Addr returns the address chain folded into an access —
// the linear form of its address slot's value — or nil when it has
// none.
func (f *Func) Addr(s *Inst) *Lin {
	if s.Side == 0 {
		return nil
	}
	return &f.addrs[s.Side-1]
}

// SetAddr folds the address chain l into the access s.
func (f *Func) SetAddr(s *Inst, l Lin) { s.Side = add(&f.addrs, l) }

// Check returns a range check's plan.
func (f *Func) Check(s *Inst) *CheckPlan { return &f.checks[s.Side-1] }

// SetCheck gives the range check s its plan.
func (f *Func) SetCheck(s *Inst, p CheckPlan) { s.Side = add(&f.checks, p) }

// Pair returns a fused pair's two halves: Pair[0] runs first and still
// writes its destination register, so the fused form is
// observationally identical to the unfused pair. The halves' own cold
// payloads (a folded address, a select's condition) are in f's tables
// like any op's.
func (f *Func) Pair(s *Inst) *[2]Inst { return &f.pairs[s.Side-1] }

// Scratch is one compile worker's transient tables for the passes over
// a Func: the stream BuildFunc builds into, FindLabels' marks,
// Compact's remap, Optimize's pending definitions and local versions,
// and Lower's register map. A worker reuses one across the functions
// it takes, so a pass allocates nothing per function once the tables
// have grown to the largest. Two results alias it, each until the next
// call of the same kind on the same Scratch: the Code of a Func
// BuildFunc made (a caller that keeps the Func copies its ops out) and
// FindLabels' set. Every other table is rebuilt by the pass that uses
// it and means nothing between calls. A nil *Scratch stands for a
// fresh one.
type Scratch struct {
	code     []Inst
	labels   []bool
	remap    []int32
	pending  []pendingDef
	localVer []int32
	reg      []int32
}

// zeroed returns buf's array holding n zero entries, grown when it is
// short.
func zeroed[T any](buf *[]T, n int) []T {
	*buf = append((*buf)[:0], make([]T, n)...)
	return *buf
}

// FindLabels returns the set of pcs that are branch targets, in sc's
// buffer. Range checks count: their failure edge enters the slow
// clone, so any pass that requires label-free straight-line runs (late
// pair fusion, address folding) must flush at a check's target exactly
// as it would at a branch target.
func (f *Func) FindLabels(sc *Scratch) []bool {
	if sc == nil {
		sc = new(Scratch)
	}
	labels := zeroed(&sc.labels, len(f.Code)+1)
	for i := range f.Code {
		s := &f.Code[i]
		switch s.Shape {
		case ShJump, ShIfFalse, ShBranchIf, ShCmpBranch, ShPairBr, ShRangeCheck:
			labels[s.Tgt] = true
			if s.Has(HasElse) {
				labels[s.Else] = true
			}
		case ShBrTable:
			for _, bt := range f.Table(s).Targets {
				labels[bt.Tgt] = true
			}
		}
	}
	return labels[:len(f.Code)]
}

// RewriteTargets applies fn to every branch target of s. A br_table
// gets a fresh target table rather than a rewritten one, because the
// copies of an op share its cold entry: bounds-check elision's
// versioning puts each op of a loop in the stream twice, and each copy
// branches to its own targets.
func (f *Func) RewriteTargets(s *Inst, fn func(int32) int32) {
	switch s.Shape {
	case ShJump, ShIfFalse, ShBranchIf, ShCmpBranch, ShPairBr, ShRangeCheck:
		s.Tgt = fn(s.Tgt)
		if s.Has(HasElse) {
			s.Else = fn(s.Else)
		}
	case ShBrTable:
		t := *f.Table(s)
		tbl := make([]flatten.BranchTarget, len(t.Targets))
		for k, bt := range t.Targets {
			bt.Tgt = fn(bt.Tgt)
			tbl[k] = bt
		}
		t.Targets = tbl
		f.SetTable(s, t)
	}
}
