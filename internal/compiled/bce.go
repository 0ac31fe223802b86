package compiled

import (
	"leapsandbounds/internal/isa"
	"leapsandbounds/internal/obs"
	"leapsandbounds/internal/rir"
	"leapsandbounds/internal/wasm"
)

// Bounds-check elision (DESIGN.md §11) is loop versioning. The pass
// rewrites lowered slot IR so that an innermost counted loop — step 1,
// no call, call_indirect or memory.grow in its body — whose accesses
// have addresses linear in the induction local and loop-invariant slots
// runs them unchecked, guarded by a single up-front
// range check. The loop is cloned: a preheader rir.ShRangeCheck
// computes each access's first address and stride, proves the whole
// sequence in bounds via mem.CheckRange, and dispatches to a fast copy
// (accesses unchecked) or the untouched slow copy. Those are the loops
// the registered workloads have; accesses outside such a loop stay
// checked one by one.
//
// A plan is plain data, rir.CheckPlan: ranges in the linear form
// rir.Lin that address folding uses too.
//
// Soundness leans entirely on the mem.CheckRange contract: the check
// never traps, a success is never invalidated (memory only grows and
// committed pages stay committed), and clamp always fails it. A
// failed check falls back to per-access-checked code that reproduces
// exact trap sites and clamp redirect semantics, so elided and
// unelided compiles are observationally identical. Speculatively
// checking (and, under mprotect/uffd, committing) a superset of the
// addresses a partially-executed region would touch is invisible:
// committed pages read as zero either way.
//
// Address-mode fusion (fuseAddrs, at the end of this file) is not part
// of elision: it is codegen, and the engine runs it after elide on
// every compile that optimizes, folding i32 address chains into
// checked and unchecked accesses alike.

// The rir.CheckPlan/rir.LoopRange types that carry the pass's output
// live in internal/rir, in the cold table of the Func they decorate;
// the passes themselves stay here, beside the run loop that evaluates
// their plans (Instance.inRange).

// Process-wide elision statistics: obs counters the package owns,
// like modcache's. Stats() reads them and AttachBCEObs registers these
// same objects in a run registry.
var (
	bceChecksEmitted obs.Counter // accesses left per-access checked
	bceChecksElided  obs.Counter // accesses lowered to unchecked cases
	bceHoisted       obs.Counter // per-access checks hoisted to loop preheaders
	bceAddrFused     obs.Counter // address-mode ops folded into accesses, checked or not
)

// BCEStats is a snapshot of the elision counters.
type BCEStats struct {
	ChecksEmitted int64
	ChecksElided  int64
	Hoisted       int64
	AddrFused     int64
}

// Stats returns the process-wide elision counters.
func Stats() BCEStats {
	return BCEStats{
		ChecksEmitted: bceChecksEmitted.Load(),
		ChecksElided:  bceChecksElided.Load(),
		Hoisted:       bceHoisted.Load(),
		AddrFused:     bceAddrFused.Load(),
	}
}

// AttachBCEObs registers the elision counters under sc (typically a
// "bce" scope of the run registry). They are process totals: a
// registry attached after some compiles sees those compiles too.
func AttachBCEObs(sc *obs.Scope) {
	sc.RegisterCounter("checks_emitted", &bceChecksEmitted)
	sc.RegisterCounter("checks_elided", &bceChecksElided)
	sc.RegisterCounter("hoisted", &bceHoisted)
	sc.RegisterCounter("addr_fused", &bceAddrFused)
}

// elide is the pass entry point, run on the lowered stream: versioning
// lays f's longer stream out in sc's working stream.
func elide(f *rir.Func, sc *scratch) {
	hoistLoops(f, sc)
	checked := int64(0)
	for i := range f.Code {
		s := &f.Code[i]
		if (s.Shape == rir.ShLoad || s.Shape == rir.ShStore) && !s.Has(rir.Unchecked) {
			checked++
		}
	}
	bceChecksEmitted.Add(checked)
}

// accWidth returns the byte width a load/store opcode touches.
func accWidth(op wasm.Opcode) uint64 {
	switch op {
	case wasm.OpI32Load8S, wasm.OpI32Load8U, wasm.OpI64Load8S, wasm.OpI64Load8U,
		wasm.OpI32Store8, wasm.OpI64Store8:
		return 1
	case wasm.OpI32Load16S, wasm.OpI32Load16U, wasm.OpI64Load16S, wasm.OpI64Load16U,
		wasm.OpI32Store16, wasm.OpI64Store16:
		return 2
	case wasm.OpI32Load, wasm.OpF32Load, wasm.OpI64Load32S, wasm.OpI64Load32U,
		wasm.OpI32Store, wasm.OpF32Store, wasm.OpI64Store32:
		return 4
	default:
		return 8
	}
}

// ---------------------------------------------------------------------------
// Versioning
// ---------------------------------------------------------------------------

// region is a loop first..last, header to backedge, that version
// clones behind one range check.
type region struct {
	first, last int
	plan        rir.CheckPlan
	unchecked   []bool // by pc - first: the accesses plan proves
}

// rangeCheck returns a range-check guard that branches to tgt on
// failure, with plan p in f's cold table.
func rangeCheck(f *rir.Func, tgt int32, p rir.CheckPlan) rir.Inst {
	s := rir.Inst{Shape: rir.ShRangeCheck, Tgt: tgt, Class: uint8(isa.ClassBranch), Flags: rir.MemAcc}
	f.SetCheck(&s, p)
	return s
}

// bceScratch is the back half's part of a worker's scratch: its
// working stream, version's layout table, a loop's write set and
// reaching definitions and fuseAddrs' list of in-between writes. The
// stamped table (gen) is valid only under the stamp that wrote it,
// which never repeats on one scratch, so an entry a previous function
// left is never read as this one's.
type bceScratch struct {
	code    []rir.Inst // version's output
	remap   []int32
	lastDef []lastDef  // by slot: its last writer in the loop body scanned under gen
	defs    [][2]int32 // by pc - L: the defs that reach operands A and B
	gen     uint32
	between []int
}

// stream returns buf emptied, with room for n ops.
func stream(buf *[]rir.Inst, n int) []rir.Inst {
	if cap(*buf) < n {
		*buf = make([]rir.Inst, 0, n)
	}
	return (*buf)[:0]
}

// zeroed returns buf's array holding n zero entries, grown when it is
// short.
func zeroed[T any](buf *[]T, n int) []T {
	*buf = append((*buf)[:0], make([]T, n)...)
	return *buf
}

// version lays each region, in program order and disjoint, out as
//
//	[check][fast copy][slow copy]
//
// The fast copy runs the accesses its plan proves unchecked; the slow
// copy is the loop verbatim, where the check fails to. Each copy ends
// in its own backedge, so neither falls through into what follows it.
// A branch from outside enters a region at its check: regions are
// label-free past first, so a branch targets no other op of one. The
// stream is built in sc.code and becomes f's.
func version(f *rir.Func, regions []region, sc *bceScratch) {
	ir := f.Code
	// Layout: remap carries old positions to new ones for targets from
	// outside a region.
	remap := zeroed(&sc.remap, len(ir)+1)
	newPC, ri := int32(0), 0
	for i := 0; i < len(ir); {
		if ri == len(regions) || regions[ri].first != i {
			remap[i] = newPC
			newPC++
			i++
			continue
		}
		r := &regions[ri]
		n := int32(r.last - r.first + 1)
		remap[i] = newPC
		slowAt := newPC + 1 + n
		for k := int32(1); k < n; k++ {
			remap[i+int(k)] = slowAt + k
		}
		newPC = slowAt + n
		i = r.last + 1
		ri++
	}
	remap[len(ir)] = newPC

	out := stream(&sc.code, int(newPC))
	elided := int64(0)
	outside := func(t int32) int32 { return remap[t] }
	ri = 0
	for i := 0; i < len(ir); {
		if ri == len(regions) || regions[ri].first != i {
			s := ir[i]
			f.RewriteTargets(&s, outside)
			out = append(out, s)
			i++
			continue
		}
		r := &regions[ri]
		ri++
		n := r.last - r.first + 1
		// copyAt is op k of the copy whose header lands at start: the
		// backedge stays in its copy.
		copyAt := func(k int, start int32) rir.Inst {
			s := ir[r.first+k]
			f.RewriteTargets(&s, func(t int32) int32 {
				if int(t) == r.first {
					return start
				}
				return remap[t]
			})
			return s
		}
		fastStart := int32(len(out)) + 1
		slowStart := fastStart + int32(n)
		out = append(out, rangeCheck(f, slowStart, r.plan))
		for k := 0; k < n; k++ {
			s := copyAt(k, fastStart)
			if r.unchecked[k] {
				s.Flags = s.Flags&^rir.MemAcc | rir.Unchecked
				elided++
			}
			out = append(out, s)
		}
		for k := 0; k < n; k++ {
			out = append(out, copyAt(k, slowStart))
		}
		i = r.last + 1
	}
	bceChecksElided.Add(elided)
	sc.code = out
	f.Code = out
}

// ---------------------------------------------------------------------------
// Loop versioning
// ---------------------------------------------------------------------------

// hoistLoops finds analyzable innermost counted loops and versions
// them.
func hoistLoops(f *rir.Func, sc *scratch) {
	labels := f.FindLabels(&sc.ir)
	var regions []region
	hoisted := int64(0)
	claimed := -1 // highest pc already inside a chosen loop
	for E := range f.Code {
		s := &f.Code[E]
		if s.Shape != rir.ShJump || int(s.Tgt) > E || int(s.Tgt) <= claimed {
			continue
		}
		if r := analyzeLoop(f, labels, int(s.Tgt), E, &sc.bce); r != nil {
			regions = append(regions, *r)
			hoisted += int64(len(r.plan.Ranges))
			claimed = E
		}
	}
	if len(regions) == 0 {
		return
	}
	bceHoisted.Add(hoisted)
	version(f, regions, &sc.bce)
}

// analyzeLoop decides whether [L..E] is a versionable counted loop
// and builds its region and preheader plan. The tests run cheapest
// first, and one forward scan of the body gives everything past them:
// its write set, the induction's writers and the definition that
// reaches each operand the address analysis reads. A loop with a
// call, call_indirect or memory.grow in its body, or a step other than
// 1, is not versioned: no registered workload has one.
func analyzeLoop(f *rir.Func, labels []bool, L, E int, sc *bceScratch) *region {
	ir := f.Code
	// Header: fused compare exiting the loop while the induction
	// local stays below an invariant bound.
	hdr := &ir[L]
	if hdr.Shape != rir.ShCmpBranch || hdr.Has(rir.AImm) {
		return nil
	}
	switch {
	case hdr.CmpOp == wasm.OpI32GeS && hdr.Has(rir.BrOnTrue):
	case hdr.CmpOp == wasm.OpI32LtS && !hdr.Has(rir.BrOnTrue):
	default:
		return nil
	}
	if t := int(hdr.Tgt); t >= L && t <= E {
		return nil
	}
	c := int(hdr.A)
	if c >= f.NumLocals {
		return nil
	}
	// Innermost and single-entry: no labels past the header.
	for pc := L + 1; pc <= E; pc++ {
		if labels[pc] {
			return nil
		}
	}
	// Exactly one backedge (ours): a second branch to L could skip
	// the increment. Nothing in the body calls or grows memory.
	for pc := L; pc < E; pc++ {
		s := &ir[pc]
		switch s.Shape {
		case rir.ShCall, rir.ShCallInd, rir.ShMemGrow:
			return nil
		case rir.ShJump, rir.ShIfFalse, rir.ShBranchIf, rir.ShCmpBranch:
			if int(s.Tgt) == L {
				return nil
			}
		case rir.ShBrTable:
			for _, bt := range f.Table(s).Targets {
				if int(bt.Tgt) == L {
					return nil
				}
			}
		}
	}

	// The body in one forward scan. Before an op's writes it records
	// the definition reaching each operand it reads (the last op past
	// the header to write the slot), -1 when the value flows in from
	// the header; its writes then go into the write set. The induction
	// must have exactly one writer, the canonical increment.
	sc.gen++
	gen := sc.gen
	ld := sc.lastDef
	defs := zeroed(&sc.defs, E-L+1)
	reaching := func(slot int) int32 {
		// A copy of the table the scan grows, so that Go's prover sees
		// the length test guard the read.
		if ld := ld; uint(slot) < uint(len(ld)) && ld[slot].gen == gen {
			return ld[slot].pc
		}
		return -1
	}
	cWrites := 0
	incPC, incSrc := -1, int32(-1) // the induction's writer, and the def its A reads
	for k := range defs {
		pc := L + k
		s := &ir[pc]
		d := &defs[k]
		*d = [2]int32{-1, -1}
		switch s.Shape {
		case rir.ShMove, rir.ShLoad, rir.ShStore, rir.ShBin:
			if !s.Has(rir.AImm) {
				d[0] = reaching(int(s.A))
			}
			if s.Shape == rir.ShBin && !s.Has(rir.BImm) {
				d[1] = reaching(int(s.B))
			}
		}
		f.InstWrites(s, func(slot int) {
			for slot >= len(ld) {
				ld = append(ld, lastDef{})
			}
			ld[slot] = lastDef{int32(pc), gen}
			if slot == c {
				cWrites++
				incPC, incSrc = pc, d[0]
			}
		})
	}
	sc.lastDef = ld
	if cWrites != 1 {
		return nil
	}
	// The increment is either a retargeted binop writing the local
	// directly, or the common local.set of a temp holding c + 1.
	inc := &ir[incPC]
	if inc.Shape == rir.ShMove {
		if incSrc < 0 {
			return nil
		}
		inc = &ir[incSrc]
	}
	if inc.Shape != rir.ShBin || inc.Op != wasm.OpI32Add || int(inc.A) != c || !inc.Has(rir.BImm) ||
		uint32(f.ImmB(inc)) != 1 {
		return nil
	}
	// The body's write set is the slots written under gen.
	invariant := func(slot int) bool { return uint(slot) >= uint(len(ld)) || ld[slot].gen != gen }
	limitIsImm := hdr.Has(rir.BImm)
	if !limitIsImm && !invariant(int(hdr.B)) {
		return nil
	}

	r := &region{first: L, last: E, unchecked: make([]bool, E-L+1)}
	r.plan = rir.CheckPlan{IndSlot: c, Limit: rir.LinSlot(int(hdr.B))}
	if limitIsImm {
		r.plan.Limit = rir.Lin{K: uint32(f.ImmB(hdr))}
	}
	an := &affineAnalyzer{f: f, L: L, C: c, incPC: incPC, defs: defs, invariant: invariant}
	for k := 1; k < len(defs)-1; k++ {
		pc := L + k
		s := &ir[pc]
		switch s.Shape {
		case rir.ShLoad, rir.ShStore:
			if s.Has(rir.Unchecked) {
				continue
			}
			var ex affine
			if !s.Has(rir.AImm) {
				var ok bool
				if ex, ok = an.build(int(s.A), int(defs[k][0]), 0); !ok {
					continue
				}
			}
			r.plan.Ranges = append(r.plan.Ranges, rir.LoopRange{
				Addr:  ex.l,
				Ind:   ex.ind,
				Off:   s.Off,
				Width: accWidth(s.Op),
				Write: s.Shape == rir.ShStore,
			})
			r.unchecked[pc-L] = true
		}
	}
	if len(r.plan.Ranges) == 0 {
		return nil
	}
	return r
}

// affine is an address as a loop's analyzer rebuilds it from the IR
// def chain: at iteration value v it is l + ind*v (mod 2^32), l linear
// in loop-invariant slots, so the preheader can evaluate it and the
// addresses it takes over the loop are an arithmetic sequence.
type affine struct {
	l   rir.Lin
	ind uint32
}

func (a affine) isConst() bool { return a.ind == 0 && a.l.IsConst() }

func (a affine) scale(c uint32) affine { return affine{a.l.Scale(c), a.ind * c} }

type affineAnalyzer struct {
	f         *rir.Func
	L         int
	C         int
	incPC     int
	defs      [][2]int32 // by pc - L: the defs that reach operands A and B
	invariant func(int) bool
}

// lastDef is the last op of the loop body being scanned (stamp gen) to
// write a slot.
type lastDef struct {
	pc  int32
	gen uint32
}

const maxExprDepth = 32

// build reconstructs the value of slot as def, the op that reaches the
// read (-1: the header), leaves it; defs gives the defs that reach
// def's own operands. It admits only what stays linear:
// i32 add and sub, and mul and shl by a constant, of the induction,
// loop-invariant slots (two at most) and constants. An op that is not
// one of those four is rejected before its operands are looked at.
func (an *affineAnalyzer) build(slot, def, depth int) (affine, bool) {
	if depth > maxExprDepth {
		return affine{}, false
	}
	if def < 0 {
		// Value flows in from the loop header: the induction local
		// reads as the iteration value; anything else must be loop
		// invariant so the preheader sees the same value every
		// iteration.
		if slot == an.C {
			return affine{ind: 1}, true
		}
		return affine{l: rir.LinSlot(slot)}, an.invariant(slot)
	}
	if def == an.incPC && slot == an.C {
		// c read after its increment: iteration value + 1.
		return affine{l: rir.Lin{K: 1}, ind: 1}, true
	}
	d, reach := &an.f.Code[def], &an.defs[def-an.L]
	switch d.Shape {
	case rir.ShConst:
		return affine{l: rir.Lin{K: uint32(d.Imm)}}, true
	case rir.ShMove:
		// Reading through a copy: the source's value at the def site.
		return an.build(int(d.A), int(reach[0]), depth+1)
	case rir.ShBin:
		if !rir.LinearOp(d.Op) {
			return affine{}, false
		}
		operand := func(slot int32, isImm bool, imm uint64, def int32) (affine, bool) {
			if isImm {
				return affine{l: rir.Lin{K: uint32(imm)}}, true
			}
			return an.build(int(slot), int(def), depth+1)
		}
		a, ok := operand(d.A, d.Has(rir.AImm), d.Imm, reach[0])
		if !ok {
			return affine{}, false
		}
		b, ok := operand(d.B, d.Has(rir.BImm), an.f.ImmB(d), reach[1])
		if !ok {
			return affine{}, false
		}
		switch d.Op {
		case wasm.OpI32Add:
			l, ok := a.l.Add(b.l, 1)
			return affine{l, a.ind + b.ind}, ok
		case wasm.OpI32Sub:
			l, ok := a.l.Add(b.l, ^uint32(0))
			return affine{l, a.ind - b.ind}, ok
		case wasm.OpI32Mul:
			switch {
			case b.isConst():
				return a.scale(b.l.K), true
			case a.isConst():
				return b.scale(a.l.K), true
			}
		case wasm.OpI32Shl:
			if b.isConst() {
				return a.scale(1 << (b.l.K & 31)), true
			}
		}
	}
	return affine{}, false
}

// ---------------------------------------------------------------------------
// Address-mode fusion
// ---------------------------------------------------------------------------

// fuseAddrs folds short address-computation chains into the accesses
// that consume them, checked or unchecked. The i32 mul/add/shl run
// that builds an access's effective address is pure addressing
// arithmetic, and the run loop would spend more cycles stepping
// through those ops than computing anything — the run-loop-level
// analog of folding the sequence into a native instruction's
// addressing mode (scale, index, base, displacement), which native
// compilers do under every bounds-check strategy. The chain becomes
// one linear form over at most two slots (rir.Lin, the access's Addr),
// which the access evaluates inline from the same source
// slots; a chain that is not linear stays as ops. Since it is
// re-evaluated at the access, it may also be *sunk*: a chain separated
// from its access by ops that touch neither the address slot nor the
// chain's sources (typically the value computation of a store, or
// loads whose own chains were folded first) fuses the same way. A
// branch to the head of a chain can land on the next remaining
// rir.Inst; a branch anywhere between head and access (which would rely
// on a partially computed address slot or skip the sources' defs)
// disables fusion.
//
// A folded chain is linear i32 arithmetic that cannot trap and yields
// the same effective address, so a checked access keeps its trap kind,
// its trap address and clamp's redirect. The pass rewrites f in place.
func fuseAddrs(f *rir.Func, sc *scratch) {
	ir, isTgt := f.Code, f.FindLabels(&sc.ir)
	// transparent reports whether a rir.Inst between chain and access can
	// stay in place: straight-line, no calls (which clobber temps) and
	// no control flow.
	transparent := func(d *rir.Inst) bool {
		switch d.Shape {
		case rir.ShConst, rir.ShMove, rir.ShUn, rir.ShBin, rir.ShSelect, rir.ShLoad, rir.ShStore,
			rir.ShGlobalGet, rir.ShGlobalSet, rir.ShTruncSat, rir.ShMemSize:
			return true
		}
		return false
	}
	const maxSink = 24 // bound the backward scan per access
	const maxChain = 4 // ops folded into one access
	fusedOps := int64(0)
	for pc := range ir {
		s := &ir[pc]
		if (s.Shape != rir.ShLoad && s.Shape != rir.ShStore) || s.Has(rir.AImm) {
			continue
		}
		a := int(s.A)
		if a < f.NumLocals {
			// Locals are not single-use temporaries; their defs stay.
			continue
		}
		if s.Shape == rir.ShStore && !s.Has(rir.BImm) && int(s.B) == a {
			continue
		}
		// Walk back over transparent sops to the reaching def of the
		// address slot, recording what the in-between region writes.
		end := -1 // last chain op
		betweenWrites := sc.bce.between[:0]
		for q := pc - 1; q >= 0 && pc-q <= maxSink; q-- {
			d := &ir[q]
			if d.Has(rir.Dead) {
				// A chain an earlier access consumed: it is re-executed
				// inside that access and writes no register, so this
				// chain sinks past it — unless it computed this slot.
				if int(d.Dst) == a {
					break
				}
				continue
			}
			wrotesA := false
			clob := f.InstWrites(d, func(w int) {
				if w == a {
					wrotesA = true
				}
			})
			if wrotesA {
				end = q
				break
			}
			if clob >= 0 && a >= clob {
				break
			}
			if !transparent(d) {
				break
			}
			readsA := false
			f.InstReads(d, func(r int) {
				if r == a {
					readsA = true
				}
			})
			if readsA {
				break // the chain value has a second consumer
			}
			f.InstWrites(d, func(w int) { betweenWrites = append(betweenWrites, w) })
		}
		sc.bce.between = betweenWrites
		if end < 0 {
			continue
		}
		// Longest contiguous run ending at end whose ops all write the
		// address slot and compose to one linear form. Slot discipline
		// makes each intermediate dead once the next op (and finally the
		// access) consumes it.
		//
		// The run also stops below an op that rir.Lin.Then rejects on
		// sight: every chain through it would fail.
		head := end + 1
		for head > 0 && end-head+1 < maxChain {
			d := &ir[head-1]
			if d.Has(rir.Dead) || d.Shape != rir.ShBin || int(d.Dst) != a ||
				d.Has(rir.AImm|rir.BImm) || !rir.LinearOp(d.Op) {
				break
			}
			head--
		}
		var addr rir.Lin
		ok := false
		for ; head <= end; head++ {
			if addr, ok = chainLin(ir[head:end+1], a); ok {
				break
			}
		}
		// Re-evaluating the chain at the access must see its source
		// slots unmodified by the in-between region (nothing there
		// writes the address slot itself: the walk stopped at its def).
		for _, w := range betweenWrites {
			if (addr.CX != 0 && w == addr.X) || (addr.CY != 0 && w == addr.Y) {
				ok = false
			}
		}
		// Any branch target after the head would either resume a
		// partially computed address or skip the sources' defs.
		for q := head + 1; q <= pc; q++ {
			if isTgt[q] {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		f.SetAddr(s, addr)
		for q := head; q <= end; q++ {
			ir[q].Flags |= rir.Dead
		}
		fusedOps += int64(end - head + 1)
	}
	if fusedOps == 0 {
		return
	}
	f.Compact(&sc.ir)
	bceAddrFused.Add(fusedOps)
}

// chainLin composes a run of ops that all write slot a into the linear
// form of a's final value: reads of a see the running value (the
// incoming frame value before the first op), everything else reads the
// frame. It reports false when some op is not linear.
func chainLin(chain []rir.Inst, a int) (rir.Lin, bool) {
	cur, ok := rir.LinSlot(a), true
	for i := 0; ok && i < len(chain); i++ {
		cur, ok = cur.Then(&chain[i], a)
	}
	return cur, ok
}
