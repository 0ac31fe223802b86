package compiled

import (
	"math"

	"leapsandbounds/internal/isa"
	"leapsandbounds/internal/obs"
	"leapsandbounds/internal/rir"
	"leapsandbounds/internal/wasm"
)

// Bounds-check elision (DESIGN.md §11). The pass rewrites optimized,
// compacted slot IR so that provably-grouped memory accesses execute
// through check-free closures guarded by a single up-front range
// check. Two transforms run in sequence:
//
//  1. Loop versioning: an innermost counted loop whose accesses have
//     addresses affine in the induction local is cloned. A preheader
//     rir.ShRangeCheck evaluates each access's address at the first and
//     last iteration, proves the whole sequence in bounds via
//     mem.CheckRange, and dispatches to a fast copy (accesses
//     unchecked) or the untouched slow copy. Calls and memory.grow in
//     the body get a revalidation check after them in the fast copy,
//     failing over to the slow copy mid-loop.
//
//  2. EBB coalescing: within a straight-line run (no labels, calls,
//     or grows), accesses sharing a value-numbered base are replaced
//     by one range check over [base+minOff, base+maxOff+width) plus a
//     fast clone with unchecked members; on check failure the
//     original checked clone runs.
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

// The rir.CheckPlan/rir.LoopRange/rir.EvalFn types that carry the
// pass's output live in internal/rir with the instruction they
// decorate; the passes themselves stay here because the emitters
// below consume their plans directly.

// Process-wide elision statistics: obs counters the package owns,
// like modcache's. Stats() reads them and AttachBCEObs registers these
// same objects in a run registry.
var (
	bceChecksEmitted   obs.Counter // accesses left per-access checked
	bceChecksElided    obs.Counter // accesses lowered to unchecked closures
	bceRangesCoalesced obs.Counter // EBB groups replaced by one range check
	bceHoisted         obs.Counter // per-access checks hoisted to loop preheaders
	bceRevalidations   obs.Counter // runtime re-checks after call/grow in fast loop copies
	bceAddrFused       obs.Counter // address-mode ops folded into unchecked accesses
)

// BCEStats is a snapshot of the elision counters.
type BCEStats struct {
	ChecksEmitted   int64
	ChecksElided    int64
	RangesCoalesced int64
	Hoisted         int64
	Revalidations   int64
	AddrFused       int64
}

// Stats returns the process-wide elision counters.
func Stats() BCEStats {
	return BCEStats{
		ChecksEmitted:   bceChecksEmitted.Load(),
		ChecksElided:    bceChecksElided.Load(),
		RangesCoalesced: bceRangesCoalesced.Load(),
		Hoisted:         bceHoisted.Load(),
		Revalidations:   bceRevalidations.Load(),
		AddrFused:       bceAddrFused.Load(),
	}
}

// AttachBCEObs registers the elision counters under sc (typically a
// "bce" scope of the run registry). They are process totals: a
// registry attached after some compiles sees those compiles too.
func AttachBCEObs(sc *obs.Scope) {
	sc.RegisterCounter("checks_emitted", &bceChecksEmitted)
	sc.RegisterCounter("checks_elided", &bceChecksElided)
	sc.RegisterCounter("ranges_coalesced", &bceRangesCoalesced)
	sc.RegisterCounter("hoisted", &bceHoisted)
	sc.RegisterCounter("revalidations", &bceRevalidations)
	sc.RegisterCounter("addr_fused", &bceAddrFused)
}

// elide is the pass entry point, run after optimize+rir.Compact. It
// does not write the slice it is handed (the engine retains that one
// for the artifact tier): the two versioning passes build a new,
// longer stream or return their input untouched, and address fusion,
// which rewrites in place, only has unchecked accesses to work on —
// and only runs — once one of them has.
func elide(pre []rir.Inst, numLocals int) []rir.Inst {
	ir, slow := hoistLoops(pre, numLocals)
	ir = coalesceEBB(ir, slow)
	if len(ir) != len(pre) {
		ir = fuseAddrs(ir, numLocals)
	}
	checked := int64(0)
	for i := range ir {
		if (ir[i].Shape == rir.ShLoad || ir[i].Shape == rir.ShStore) && !ir[i].Unchecked {
			checked++
		}
	}
	bceChecksEmitted.Add(checked)
	return ir
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

// trappingBin lists binary ops that may trap and therefore must not
// be evaluated speculatively at a loop preheader.
var trappingBin = [256]bool{
	wasm.OpI32DivS: true, wasm.OpI32DivU: true,
	wasm.OpI32RemS: true, wasm.OpI32RemU: true,
	wasm.OpI64DivS: true, wasm.OpI64DivU: true,
	wasm.OpI64RemS: true, wasm.OpI64RemU: true,
}

// ---------------------------------------------------------------------------
// Loop versioning
// ---------------------------------------------------------------------------

type loopVer struct {
	L, E    int
	plan    *rir.CheckPlan
	planned map[int]bool // rel offsets of accesses lowered to unchecked
	revals  []int        // rel offsets of calls/grows needing revalidation
}

// hoistLoops finds analyzable innermost counted loops and versions
// them: [check][fast copy (+revalidations)][slow copy]. It also returns
// which pcs of its output are slow copies (nil when it versioned
// nothing).
func hoistLoops(ir []rir.Inst, numLocals int) ([]rir.Inst, []bool) {
	labels := rir.FindLabels(ir)
	loops := map[int]*loopVer{}
	claimed := -1 // highest pc already inside a chosen loop
	for E := 0; E < len(ir); E++ {
		s := &ir[E]
		if s.Shape != rir.ShJump || int(s.Tgt) > E {
			continue
		}
		L := int(s.Tgt)
		if L <= claimed {
			continue
		}
		if lv := analyzeLoop(ir, labels, L, E, numLocals); lv != nil {
			loops[L] = lv
			claimed = E
		}
	}
	if len(loops) == 0 {
		return ir, nil
	}

	// Phase A: layout. remap carries old→new positions for branch
	// targets from outside a cloned region; positions inside a loop
	// default to the slow copy (no outside branch can reach them —
	// the body is label-free — but the backedge target L maps to the
	// check so every loop entry is guarded).
	remap := make([]int32, len(ir)+1)
	type placedLoop struct {
		lv               *loopVer
		check, fastStart int
		slowStart        int
		fastPos          []int32
	}
	var places []placedLoop
	newPC := int32(0)
	for i := 0; i < len(ir); {
		lv, ok := loops[i]
		if !ok {
			remap[i] = newPC
			newPC++
			i++
			continue
		}
		n := lv.E - lv.L + 1
		p := placedLoop{lv: lv, check: int(newPC)}
		remap[i] = newPC
		newPC++ // the range check
		p.fastStart = int(newPC)
		p.fastPos = make([]int32, n)
		ri := 0
		for k := 0; k < n; k++ {
			p.fastPos[k] = newPC
			newPC++
			if ri < len(lv.revals) && lv.revals[ri] == k {
				newPC++ // revalidation after this call/grow
				ri++
			}
		}
		p.slowStart = int(newPC)
		for k := 1; k < n; k++ {
			remap[i+k] = newPC + int32(k)
		}
		newPC += int32(n)
		places = append(places, p)
		i = lv.E + 1
	}
	remap[len(ir)] = newPC

	// Phase B: emit.
	out := make([]rir.Inst, 0, newPC)
	slow := make([]bool, newPC)
	pi := 0
	hoisted, elided := int64(0), int64(0)
	for i := 0; i < len(ir); {
		lv, ok := loops[i]
		if !ok {
			s := ir[i]
			s.RewriteTargets(func(t int32) int32 { return remap[t] })
			out = append(out, s)
			i++
			continue
		}
		p := places[pi]
		pi++
		n := lv.E - lv.L + 1
		plan := *lv.plan
		out = append(out, rir.Inst{
			Shape:  rir.ShRangeCheck,
			Tgt:    int32(p.slowStart),
			Chk:    &plan,
			Class:  isa.ClassBranch,
			MemAcc: true,
		})
		mapLoopTgt := func(hdr int32) func(int32) int32 {
			return func(t int32) int32 {
				if int(t) == lv.L {
					return hdr
				}
				return remap[t]
			}
		}
		// Fast copy: planned accesses unchecked, revalidations after
		// calls/grows failing over to the slow copy at the same point.
		ri := 0
		for k := 0; k < n; k++ {
			s := ir[lv.L+k]
			s.RewriteTargets(mapLoopTgt(p.fastPos[0]))
			if lv.planned[k] {
				s.Unchecked = true
				s.MemAcc = false
				elided++
			}
			out = append(out, s)
			if ri < len(lv.revals) && lv.revals[ri] == k {
				rp := plan
				rp.Reval = true
				out = append(out, rir.Inst{
					Shape:  rir.ShRangeCheck,
					Tgt:    int32(p.slowStart + k + 1),
					Chk:    &rp,
					Class:  isa.ClassBranch,
					MemAcc: true,
				})
				ri++
			}
		}
		// Slow copy: the original loop, verbatim.
		for k := 0; k < n; k++ {
			s := ir[lv.L+k]
			s.RewriteTargets(mapLoopTgt(int32(p.slowStart)))
			slow[len(out)] = true
			out = append(out, s)
		}
		hoisted += int64(len(lv.plan.Ranges))
		i = lv.E + 1
	}
	bceHoisted.Add(hoisted)
	bceChecksElided.Add(elided)
	return out, slow
}

// analyzeLoop decides whether [L..E] is a versionable counted loop
// and builds its preheader plan.
func analyzeLoop(ir []rir.Inst, labels []bool, L, E, numLocals int) *loopVer {
	// Innermost and single-entry: no labels past the header.
	for pc := L + 1; pc <= E; pc++ {
		if labels[pc] {
			return nil
		}
	}
	// Exactly one backedge (ours): a second branch to L could skip
	// the increment.
	for pc := L; pc < E; pc++ {
		s := &ir[pc]
		switch s.Shape {
		case rir.ShJump, rir.ShIfFalse, rir.ShBranchIf, rir.ShCmpBranch:
			if int(s.Tgt) == L {
				return nil
			}
		case rir.ShBrTable:
			for _, bt := range s.Table {
				if int(bt.Tgt) == L {
					return nil
				}
			}
		}
	}
	// Header: fused compare exiting the loop while the induction
	// local stays below an invariant bound.
	hdr := &ir[L]
	if hdr.Shape != rir.ShCmpBranch || hdr.AImm {
		return nil
	}
	switch {
	case hdr.CmpOp == wasm.OpI32GeS && hdr.BrOnTrue:
	case hdr.CmpOp == wasm.OpI32LtS && !hdr.BrOnTrue:
	default:
		return nil
	}
	if t := int(hdr.Tgt); t >= L && t <= E {
		return nil
	}
	c := hdr.A
	if c >= numLocals {
		return nil
	}

	// Write set of the body; the induction must have exactly one
	// writer, the canonical increment.
	written := map[int]bool{}
	cWrites := 0
	incPC := -1
	for pc := L; pc <= E; pc++ {
		s := &ir[pc]
		clob := rir.InstWrites(s, func(slot int) {
			written[slot] = true
			if slot == c {
				cWrites++
				incPC = pc
			}
		})
		_ = clob // calls clobber only callee frames (>= numLocals)
	}
	if cWrites != 1 {
		return nil
	}
	// The increment is either a retargeted binop writing the local
	// directly, or the common local.set of a temp holding c + step.
	inc := &ir[incPC]
	if inc.Shape == rir.ShMove {
		src := -1
		for p := incPC - 1; p > L; p-- {
			hit := false
			clob := rir.InstWrites(&ir[p], func(w int) {
				if w == inc.A {
					hit = true
				}
			})
			if hit || (clob >= 0 && inc.A >= clob) {
				src = p
				break
			}
		}
		if src < 0 {
			return nil
		}
		inc = &ir[src]
	}
	if inc.Shape != rir.ShBin || inc.Op != wasm.OpI32Add || inc.A != c || !inc.BImm {
		return nil
	}
	step := int32(uint32(inc.ImmB))
	if step <= 0 {
		return nil
	}
	invariant := func(slot int) bool { return !written[slot] }
	if !hdr.BImm && !invariant(hdr.B) {
		return nil
	}

	lv := &loopVer{L: L, E: E, planned: map[int]bool{}}
	plan := &rir.CheckPlan{
		BaseSlot:   -1,
		IndSlot:    c,
		LimitSlot:  hdr.B,
		LimitImm:   hdr.ImmB,
		LimitIsImm: hdr.BImm,
		Step:       step,
	}
	an := &affineAnalyzer{ir: ir, L: L, C: c, incPC: incPC, Step: step, invariant: invariant}
	for pc := L + 1; pc < E; pc++ {
		s := &ir[pc]
		switch s.Shape {
		case rir.ShCall, rir.ShCallInd, rir.ShMemGrow:
			lv.revals = append(lv.revals, pc-L)
		case rir.ShLoad, rir.ShStore:
			if s.Unchecked || (!s.Pure && !s.AImm) {
				continue
			}
			var ex *aexpr
			if s.AImm {
				ex = constExpr(0)
			} else {
				ex = an.build(s.A, pc, 0)
			}
			if ex == nil || !ex.affine {
				continue
			}
			plan.Ranges = append(plan.Ranges, rir.LoopRange{
				Expr:  ex.eval,
				Off:   s.Off,
				Width: accWidth(s.Op),
				Write: s.Shape == rir.ShStore,
			})
			lv.planned[pc-L] = true
		}
	}
	if len(plan.Ranges) == 0 {
		return nil
	}
	lv.plan = plan
	return lv
}

// aexpr is a pure address expression rebuilt from the IR def chain:
// evaluable at the preheader, with affinity in the induction tracked
// so only arithmetic sequences are hoisted. Invariant expressions are
// trivially affine (coefficient zero).
type aexpr struct {
	eval   rir.EvalFn
	depC   bool
	affine bool
}

func constExpr(k uint64) *aexpr {
	return &aexpr{
		eval:   func(st []uint64, base int, cv uint64) uint64 { return k },
		affine: true,
	}
}

type affineAnalyzer struct {
	ir        []rir.Inst
	L         int
	C         int
	incPC     int
	Step      int32
	invariant func(int) bool
}

const maxExprDepth = 32

// build reconstructs the value of slot as read at pc.
func (an *affineAnalyzer) build(slot, pc, depth int) *aexpr {
	if depth > maxExprDepth {
		return nil
	}
	// Find the def reaching this read inside the straight-line body.
	def := -1
	for p := pc - 1; p > an.L; p-- {
		hit := false
		clob := rir.InstWrites(&an.ir[p], func(w int) {
			if w == slot {
				hit = true
			}
		})
		if hit || (clob >= 0 && slot >= clob) {
			def = p
			break
		}
	}
	if def < 0 {
		// Value flows in from the loop header: the induction local
		// reads as the iteration value; anything else must be loop
		// invariant so the preheader sees the same value every
		// iteration.
		if slot == an.C {
			return &aexpr{
				eval:   func(st []uint64, base int, cv uint64) uint64 { return cv },
				depC:   true,
				affine: true,
			}
		}
		if !an.invariant(slot) {
			return nil
		}
		s := slot
		return &aexpr{
			eval:   func(st []uint64, base int, cv uint64) uint64 { return st[base+s] },
			affine: true,
		}
	}
	if def == an.incPC && slot == an.C {
		// c read after its increment: iteration value + step.
		step := uint32(an.Step)
		return &aexpr{
			eval: func(st []uint64, base int, cv uint64) uint64 {
				return uint64(uint32(cv) + step)
			},
			depC:   true,
			affine: true,
		}
	}
	d := &an.ir[def]
	switch d.Shape {
	case rir.ShConst:
		return constExpr(d.ImmA)
	case rir.ShMove:
		// Reading through a copy: the source's value at the def site.
		return an.build(d.A, def, depth+1)
	case rir.ShBin:
		if trappingBin[d.Op] {
			return nil
		}
		fn := rir.BinOps[d.Op]
		if fn == nil {
			return nil
		}
		var ea, eb *aexpr
		if d.AImm {
			ea = constExpr(d.ImmA)
		} else {
			ea = an.build(d.A, def, depth+1)
		}
		if ea == nil {
			return nil
		}
		if d.BImm {
			eb = constExpr(d.ImmB)
		} else {
			eb = an.build(d.B, def, depth+1)
		}
		if eb == nil {
			return nil
		}
		r := &aexpr{depC: ea.depC || eb.depC}
		switch {
		case !r.depC:
			r.affine = true
		case d.Op == wasm.OpI32Add || d.Op == wasm.OpI32Sub:
			r.affine = ea.affine && eb.affine
		case d.Op == wasm.OpI32Mul:
			// k*x is linear mod 2^32 when one side is invariant.
			r.affine = ea.affine && eb.affine && !(ea.depC && eb.depC)
		case d.Op == wasm.OpI32Shl:
			// x<<k multiplies by a power of two; the shift amount
			// itself must not vary with the induction.
			r.affine = ea.affine && !eb.depC
		default:
			r.affine = false
		}
		if !r.affine {
			return nil
		}
		fa, fb := ea.eval, eb.eval
		r.eval = func(st []uint64, base int, cv uint64) uint64 {
			return fn(fa(st, base, cv), fb(st, base, cv))
		}
		return r
	case rir.ShUn:
		// Pure non-trapping unary ops are evaluable but not linear:
		// only invariant subtrees pass.
		if rir.UnOps[d.Op] == nil || !rir.SafeUnFold(d.Op) {
			return nil
		}
		ea := an.build(d.A, def, depth+1)
		if ea == nil || ea.depC {
			return nil
		}
		fn, fa := rir.UnOps[d.Op], ea.eval
		return &aexpr{
			eval: func(st []uint64, base int, cv uint64) uint64 {
				return fn(fa(st, base, cv))
			},
			affine: true,
		}
	default:
		return nil
	}
}

// ---------------------------------------------------------------------------
// EBB coalescing
// ---------------------------------------------------------------------------

type ebbMember struct {
	pc    int
	Off   uint64
	Width uint64
	Write bool
}

type ebbGroup struct {
	BaseSlot int // -1 for constant-address members
	members  []ebbMember
}

// coalesceEBB groups same-base accesses inside straight-line runs and
// versions each group region on one range check. The slow copy of a
// versioned loop (slow[pc]) is left as it is: it runs when the loop's
// own check has failed — every iteration under clamp, where no range
// check can pass — so a second check there is a dispatch per iteration
// spent on the path that exists to be the plain checked one.
func coalesceEBB(ir []rir.Inst, slow []bool) []rir.Inst {
	labels := rir.FindLabels(ir)
	groups := collectGroups(ir, labels, slow)
	if len(groups) == 0 {
		return ir
	}

	// Greedy non-overlapping regions, in program order.
	type region struct {
		first, last int
		g           *ebbGroup
	}
	var regions []region
	end := -1
	for gi := range groups {
		g := &groups[gi]
		first := g.members[0].pc
		last := g.members[len(g.members)-1].pc
		if first <= end {
			continue
		}
		regions = append(regions, region{first, last, g})
		end = last
	}

	// Phase A: layout. Region at [first..last] becomes
	// [check][fast first..last][jump merge][slow first..last].
	remap := make([]int32, len(ir)+1)
	newPC := int32(0)
	ri := 0
	for i := 0; i < len(ir); {
		if ri < len(regions) && regions[ri].first == i {
			r := regions[ri]
			n := int32(r.last - r.first + 1)
			remap[i] = newPC // entry lands on the check
			for k := int32(1); k < n; k++ {
				remap[i+int(k)] = newPC + 1 + k // unused: region is label-free past first
			}
			newPC += 1 + n + 1 + n
			i = r.last + 1
			ri++
			continue
		}
		remap[i] = newPC
		newPC++
		i++
	}
	remap[len(ir)] = newPC

	// Phase B: emit.
	out := make([]rir.Inst, 0, newPC)
	ri = 0
	coalesced, elided := int64(0), int64(0)
	var member []bool
	for i := 0; i < len(ir); {
		if ri >= len(regions) || regions[ri].first != i {
			s := ir[i]
			s.RewriteTargets(func(t int32) int32 { return remap[t] })
			out = append(out, s)
			i++
			continue
		}
		r := regions[ri]
		ri++
		n := r.last - r.first + 1
		lo, hi := uint64(math.MaxUint64), uint64(0)
		write := false
		member = append(member[:0], make([]bool, n)...) // by pc - r.first
		for _, m := range r.g.members {
			member[m.pc-r.first] = true
			if m.Off < lo {
				lo = m.Off
			}
			if m.Off+m.Width > hi {
				hi = m.Off + m.Width
			}
			write = write || m.Write
		}
		checkPos := remap[i]
		slowStart := checkPos + 1 + int32(n) + 1
		merge := remap[r.last+1]
		out = append(out, rir.Inst{
			Shape: rir.ShRangeCheck,
			Tgt:   slowStart,
			Chk: &rir.CheckPlan{
				BaseSlot: r.g.BaseSlot,
				Lo:       lo,
				N:        hi - lo,
				Write:    write,
			},
			Class:  isa.ClassBranch,
			MemAcc: true,
		})
		for k := 0; k < n; k++ {
			s := ir[r.first+k]
			s.RewriteTargets(func(t int32) int32 { return remap[t] })
			if member[k] {
				s.Unchecked = true
				s.MemAcc = false
				elided++
			}
			out = append(out, s)
		}
		out = append(out, rir.Inst{Shape: rir.ShJump, Tgt: merge, CarrySrc: -1, Class: isa.ClassBranch})
		for k := 0; k < n; k++ {
			s := ir[r.first+k]
			s.RewriteTargets(func(t int32) int32 { return remap[t] })
			out = append(out, s)
		}
		coalesced++
		i = r.last + 1
	}
	bceRangesCoalesced.Add(coalesced)
	bceChecksElided.Add(elided)
	return out
}

// collectGroups value-numbers each straight-line run and returns the
// ≥2-member same-base access groups in program order of first member.
func collectGroups(ir []rir.Inst, labels, slow []bool) []ebbGroup {
	var groups []ebbGroup

	type bucket struct {
		BaseSlot int
		members  []ebbMember
	}
	// The tables are the function's, emptied at every run boundary.
	// vnOf is indexed by slot and grown as slots appear; an entry holds
	// only in the run that wrote it, so a new run empties it by number.
	type slotVN struct{ vn, run uint64 }
	var (
		vnOf    []slotVN
		run     uint64
		vnTable = map[[3]uint64]uint64{}
		buckets = map[uint64]*bucket{}
		order   []uint64
		nextVN  uint64
	)
	reset := func() {
		run++
		clear(vnTable)
		clear(buckets)
		order = order[:0]
		nextVN = 1
	}
	flush := func() {
		for _, vn := range order {
			b := buckets[vn]
			if len(b.members) >= 2 {
				groups = append(groups, ebbGroup{BaseSlot: b.BaseSlot, members: b.members})
			}
		}
		reset()
	}
	fresh := func() uint64 { nextVN++; return nextVN }
	vnSet := func(slot int, vn uint64) {
		for slot >= len(vnOf) {
			vnOf = append(vnOf, slotVN{})
		}
		vnOf[slot] = slotVN{vn, run}
	}
	vnGet := func(slot int) uint64 {
		if slot < len(vnOf) && vnOf[slot].run == run {
			return vnOf[slot].vn
		}
		v := fresh()
		vnSet(slot, v)
		return v
	}
	hash := func(kind, a, b uint64) uint64 {
		k := [3]uint64{kind, a, b}
		if v, ok := vnTable[k]; ok {
			return v
		}
		v := fresh()
		vnTable[k] = v
		return v
	}
	reset()

	const vnImmBase = ^uint64(0) // shared id for constant-address accesses

	for pc := 0; pc < len(ir); pc++ {
		if labels[pc] {
			flush()
		}
		s := &ir[pc]
		switch s.Shape {
		case rir.ShCall, rir.ShCallInd, rir.ShMemGrow:
			flush() // what the instruction writes is unknown with everything else
			continue
		case rir.ShConst:
			vnSet(s.Dst, hash(1, s.ImmA, 0))
			continue
		case rir.ShMove:
			vnSet(s.Dst, vnGet(s.A))
			continue
		case rir.ShBin:
			va := uint64(0)
			if s.AImm {
				va = hash(1, s.ImmA, 0)
			} else {
				va = vnGet(s.A)
			}
			vb := uint64(0)
			if s.BImm {
				vb = hash(1, s.ImmB, 0)
			} else {
				vb = vnGet(s.B)
			}
			vnSet(s.Dst, hash(2+uint64(s.Op), va, vb))
			continue
		case rir.ShLoad, rir.ShStore:
			if !s.Unchecked && (slow == nil || !slow[pc]) {
				vn := vnImmBase
				baseSlot := -1
				if !s.AImm {
					vn = vnGet(s.A)
					baseSlot = s.A
				}
				b := buckets[vn]
				if b == nil {
					b = &bucket{BaseSlot: baseSlot}
					buckets[vn] = b
					order = append(order, vn)
				}
				b.members = append(b.members, ebbMember{
					pc:    pc,
					Off:   s.Off,
					Width: accWidth(s.Op),
					Write: s.Shape == rir.ShStore,
				})
			}
			if s.Shape == rir.ShLoad {
				vnSet(s.Dst, fresh())
			}
			continue
		}
		// Everything else: new values are opaque; branch carries and
		// table pops invalidate their destinations.
		rir.InstWrites(s, func(slot int) { vnSet(slot, fresh()) })
	}
	flush()
	return groups
}

// emitRangeCheck compiles a rir.ShRangeCheck rir.Inst: fall through on
// success, branch to the checked clone on failure.
func emitRangeCheck(s *rir.Inst) (cop, error) {
	p := s.Chk
	tgt := int(s.Tgt)
	if p.Ranges == nil {
		baseSlot, lo, n, write := p.BaseSlot, p.Lo, p.N, p.Write
		if baseSlot < 0 {
			return func(inst *Instance, base, pc int) int {
				if _, ok := inst.base.Mem.CheckRange(lo, n, write); ok {
					return pc + 1
				}
				return tgt
			}, nil
		}
		return func(inst *Instance, base, pc int) int {
			v := uint64(uint32(inst.stack[base+baseSlot]))
			if _, ok := inst.base.Mem.CheckRange(v+lo, n, write); ok {
				return pc + 1
			}
			return tgt
		}, nil
	}
	ind := p.IndSlot
	step := int64(p.Step)
	limitSlot, limitImm, limitIsImm := p.LimitSlot, p.LimitImm, p.LimitIsImm
	reval := p.Reval
	ranges := p.Ranges
	return func(inst *Instance, base, pc int) int {
		m := inst.base.Mem
		if !m.ElisionCapable() {
			// Clamp: the guard can never pass; skip the plan
			// evaluation and run the checked copy directly.
			return tgt
		}
		if reval {
			bceRevalidations.Inc()
		}
		st := inst.stack
		lo := int64(int32(uint32(st[base+ind])))
		var limit int64
		if limitIsImm {
			limit = int64(int32(uint32(limitImm)))
		} else {
			limit = int64(int32(uint32(st[base+limitSlot])))
		}
		if lo < 0 || lo >= limit {
			return tgt
		}
		var iters int64
		if step == 1 {
			// The dominant shape: trip count needs no division and the
			// induction cannot overflow int32 before reaching limit.
			iters = limit - lo
		} else {
			iters = (limit - lo + step - 1) / step
			if lo+iters*step > math.MaxInt32 {
				// The original loop would wrap the induction rather
				// than exit; only the checked copy reproduces that.
				return tgt
			}
		}
		for i := range ranges {
			r := &ranges[i]
			a0 := uint32(r.Expr(st, base, uint64(lo)))
			stride := uint32(r.Expr(st, base, uint64(lo+step))) - a0
			// The analyzer only admits expressions affine in the
			// induction value mod 2^32, so the visited addresses are
			// exactly a0 + k*stride (mod 2^32) for k in [0, iters); a
			// bounded total span pins every interior address inside
			// [a0, a0+total] with no wraparound.
			total := uint64(stride) * uint64(iters-1)
			if total >= 1<<32 {
				return tgt
			}
			first := uint64(a0) + r.Off
			if first+total+r.Width > 1<<32 {
				return tgt
			}
			if _, ok := m.CheckRange(first, total+r.Width, r.Write); !ok {
				return tgt
			}
		}
		return pc + 1
	}, nil
}

// ---------------------------------------------------------------------------
// Address-mode fusion
// ---------------------------------------------------------------------------

// fuseAddrs folds short address-computation chains into the unchecked
// accesses that consume them. Once the bounds check on an access is
// gone, the i32 mul/add/shl run that builds its effective address is
// pure addressing arithmetic, and the dispatch loop would spend more
// cycles stepping through those closures than computing anything — the
// closure-level analog of folding the sequence into a native
// instruction's addressing mode (scale, index, base, displacement).
// The chain becomes one linear form over at most two slots (rir.Lin,
// the access's Addr), which the access closure evaluates inline from
// the same source slots; a chain that is not linear stays as ops. Since
// it is re-evaluated at the access, it may also be *sunk*: a chain
// separated from its access by ops that touch neither the address slot
// nor the chain's sources (typically the value computation of a store,
// or loads whose own chains were folded first) fuses the same way. A
// branch to the head of a chain can land on the next remaining
// rir.Inst; a branch anywhere between head and access (which would rely
// on a partially computed address slot or skip the sources' defs)
// disables fusion.
//
// Only unchecked accesses fuse: a checked access keeps its original
// rir.Inst sequence so check failures, trap pcs and clamp redirects stay
// byte-identical to the unelided build.
func fuseAddrs(ir []rir.Inst, numLocals int) []rir.Inst {
	isTgt := rir.FindLabels(ir)
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
		if (s.Shape != rir.ShLoad && s.Shape != rir.ShStore) || !s.Unchecked || s.AImm {
			continue
		}
		a := s.A
		if a < numLocals {
			// Locals are not single-use temporaries; their defs stay.
			continue
		}
		if s.Shape == rir.ShStore && !s.BImm && s.B == a {
			continue
		}
		// Walk back over transparent sops to the reaching def of the
		// address slot, recording what the in-between region writes.
		end := -1 // last chain op
		var betweenWrites []int
		for q := pc - 1; q >= 0 && pc-q <= maxSink; q-- {
			d := &ir[q]
			if d.Dead {
				// A chain an earlier access consumed: it is re-executed
				// inside that access and writes no register, so this
				// chain sinks past it — unless it computed this slot.
				if d.Dst == a {
					break
				}
				continue
			}
			wrotesA := false
			clob := rir.InstWrites(d, func(w int) {
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
			rir.InstReads(d, func(r int) {
				if r == a {
					readsA = true
				}
			})
			if readsA {
				break // the chain value has a second consumer
			}
			rir.InstWrites(d, func(w int) { betweenWrites = append(betweenWrites, w) })
		}
		if end < 0 {
			continue
		}
		// Longest contiguous run ending at end whose ops all write the
		// address slot and compose to one linear form. Slot discipline
		// makes each intermediate dead once the next op (and finally the
		// access) consumes it.
		head := end + 1
		for head > 0 && end-head+1 < maxChain && !ir[head-1].Dead &&
			ir[head-1].Shape == rir.ShBin && ir[head-1].Dst == a {
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
		s.Addr = &addr
		for q := head; q <= end; q++ {
			ir[q].Dead = true
		}
		fusedOps += int64(end - head + 1)
	}
	if fusedOps == 0 {
		return ir
	}
	ir = rir.Compact(ir)
	bceAddrFused.Add(fusedOps)
	return ir
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
