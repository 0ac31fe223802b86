package family

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"

	"leapsandbounds/internal/wasm"
	g "leapsandbounds/internal/wasmgen"
)

// progGen generates random valid-by-construction kernels through the
// wasmgen DSL: arithmetic expression trees over typed locals,
// bounded loops, conditionals, and in-bounds memory traffic. Every
// generated program is deterministic, so engines must agree exactly.
type progGen struct {
	r      *rand.Rand
	f      *g.Func
	i32s   []*g.Local
	i64s   []*g.Local
	f64s   []*g.Local
	arrI64 g.Arr
	arrF64 g.Arr
	depth  int

	// linear makes most indexes inside a loop linear in its counters
	// (Program): off is a local no statement writes after the
	// prologue, loops the counters of the enclosing loops.
	linear bool
	off    *g.Local
	loops  []*g.Local
}

const (
	fuzzArrLen = 512 // elements per array; every index is in range
	maxTrip    = 20  // a generated loop runs at most this many times
	maxStride  = 16  // the largest counter multiplier of a linear index
	maxOff     = 63  // the largest value of progGen.off
)

func (p *progGen) expr32(depth int) g.Expr {
	if depth <= 0 || p.r.Intn(4) == 0 {
		switch p.r.Intn(3) {
		case 0:
			return g.I32(int32(p.r.Uint32()))
		default:
			return g.Get(p.i32s[p.r.Intn(len(p.i32s))])
		}
	}
	a := p.expr32(depth - 1)
	b := p.expr32(depth - 1)
	switch p.r.Intn(12) {
	case 0:
		return g.Add(a, b)
	case 1:
		return g.Sub(a, b)
	case 2:
		return g.Mul(a, b)
	case 3:
		return g.And(a, b)
	case 4:
		return g.Or(a, b)
	case 5:
		return g.Xor(a, b)
	case 6:
		return g.Shl(a, g.And(b, g.I32(31)))
	case 7:
		return g.ShrU(a, g.And(b, g.I32(31)))
	case 8:
		return g.Sel(g.Lt(a, b), a, b)
	case 9:
		return g.Eqz(a)
	case 10:
		// Division guarded against zero and MinInt32/-1.
		return g.DivU(a, g.Or(g.And(b, g.I32(0xffff)), g.I32(3)))
	default:
		return g.Rotl(a, g.And(b, g.I32(31)))
	}
}

func (p *progGen) expr64(depth int) g.Expr {
	if depth <= 0 || p.r.Intn(4) == 0 {
		switch p.r.Intn(3) {
		case 0:
			return g.I64(int64(p.r.Uint64()))
		case 1:
			return g.I64FromI32U(p.expr32(0))
		default:
			return g.Get(p.i64s[p.r.Intn(len(p.i64s))])
		}
	}
	a := p.expr64(depth - 1)
	b := p.expr64(depth - 1)
	switch p.r.Intn(8) {
	case 0:
		return g.Add(a, b)
	case 1:
		return g.Sub(a, b)
	case 2:
		return g.Mul(a, b)
	case 3:
		return g.Xor(a, b)
	case 4:
		return g.ShrU(a, g.And(b, g.I64(63)))
	case 5:
		return g.Rotl(a, g.And(b, g.I64(63)))
	case 6:
		return g.Sel(g.LtU(a, b), a, b)
	default:
		return g.And(a, b)
	}
}

func (p *progGen) exprF64(depth int) g.Expr {
	if depth <= 0 || p.r.Intn(4) == 0 {
		switch p.r.Intn(3) {
		case 0:
			return g.F64(float64(p.r.Intn(1000)) / 8.0)
		case 1:
			return g.F64FromI32(g.And(p.expr32(0), g.I32(0xffff)))
		default:
			return g.Get(p.f64s[p.r.Intn(len(p.f64s))])
		}
	}
	a := p.exprF64(depth - 1)
	b := p.exprF64(depth - 1)
	switch p.r.Intn(6) {
	case 0:
		return g.Add(a, b)
	case 1:
		return g.Sub(a, b)
	case 2:
		return g.Mul(a, b)
	case 3:
		return g.Min(a, b)
	case 4:
		return g.Max(a, b)
	default:
		// Division by a value bounded away from zero.
		return g.Div(a, g.Add(g.Abs(b), g.F64(1.0)))
	}
}

// index returns an in-bounds array index expression. A linear one is
// a counter times a constant stride plus off, or row-major
// outer*maxTrip + inner + off, in bounds since a counter stays below
// maxTrip; the masked one is not linear, so elision cannot hoist it.
func (p *progGen) index() g.Expr {
	if n := len(p.loops); p.linear && n > 0 && p.r.Intn(4) != 0 {
		inner := g.Get(p.loops[n-1])
		if n >= 2 && p.r.Intn(2) == 0 {
			return g.Add(g.Add(g.Mul(g.Get(p.loops[n-2]), g.I32(maxTrip)), inner), g.Get(p.off))
		}
		return g.Add(g.Mul(inner, g.I32(int32(p.r.Intn(maxStride)+1))), g.Get(p.off))
	}
	return g.And(p.expr32(1), g.I32(fuzzArrLen-1))
}

func (p *progGen) stmt(depth int) g.Stmt {
	// Occasionally inject a data-dependent early return: engines
	// must agree on whether it fires, and it exercises the
	// function-end join from varied operand heights.
	if p.r.Intn(24) == 0 {
		return g.If(
			g.Eq(g.And(p.expr32(1), g.I32(63)), g.I32(9)),
			g.Return(g.Get(p.i64s[p.r.Intn(len(p.i64s))])),
		)
	}
	switch p.r.Intn(10) {
	case 0, 1:
		return g.Set(p.i32s[p.r.Intn(len(p.i32s))], p.expr32(depth))
	case 2:
		return g.Set(p.i64s[p.r.Intn(len(p.i64s))], p.expr64(depth))
	case 3:
		return g.Set(p.f64s[p.r.Intn(len(p.f64s))], p.exprF64(depth))
	case 4:
		return p.arrI64.Store(p.index(), p.expr64(depth))
	case 5:
		return p.arrF64.Store(p.index(), p.exprF64(depth))
	case 6:
		return g.Set(p.i64s[p.r.Intn(len(p.i64s))], p.arrI64.Load(p.index()))
	case 7:
		return g.Set(p.f64s[p.r.Intn(len(p.f64s))], p.arrF64.Load(p.index()))
	case 8:
		if depth > 0 {
			return g.IfElse(g.Lt(p.expr32(1), p.expr32(1)),
				[]g.Stmt{p.stmt(depth - 1)},
				[]g.Stmt{p.stmt(depth - 1)})
		}
		return g.Set(p.i32s[0], p.expr32(0))
	default:
		if depth > 0 {
			// A bounded counted loop over a fresh counter.
			ctr := p.f.LocalI32(fmt.Sprintf("c%d", p.depth))
			p.depth++
			p.loops = append(p.loops, ctr)
			body := []g.Stmt{p.stmt(depth - 1), p.stmt(depth - 1)}
			p.loops = p.loops[:len(p.loops)-1]
			return g.For(ctr, g.I32(0), g.I32(int32(p.r.Intn(maxTrip)+1)), body...)
		}
		return g.Set(p.i32s[0], p.expr32(0))
	}
}

// oobArrBase positions the straddling array for the out-of-bounds
// differential test: with Memory(1,4) the wasm-visible size is
// 64 KiB and the backing 256 KiB, so an i64 array of fuzzArrLen
// elements starting here has its first half below the size boundary
// and its second half beyond it — but never beyond the backing, so
// the none strategy's "MMU window" stays silent, exactly as real
// hardware inside the 8 GiB reservation would be.
const oobArrBase = 65536 - fuzzArrLen*8/2

// Program returns a module whose run() executes a random statement
// list and returns a digest of all state. With oob the i64 array
// straddles the memory-size boundary (oobArrBase) and the digest reads
// only its in-bounds half (reading the rest would force a trap on
// every strategy that traps, flattening the per-seed variety the OOB
// tests exist to exercise). With linear, indexes inside loops are
// mostly linear (progGen.index).
func Program(seed int64, oob, linear bool) (*wasm.Module, error) {
	r := rand.New(rand.NewSource(seed))
	mb := g.NewModule()
	mb.Memory(1, 4)

	f := mb.Func("run", wasm.I64)
	p := &progGen{r: r, f: f, linear: linear}
	digestLen := int32(fuzzArrLen)
	if oob {
		p.arrI64 = g.NewLayout(oobArrBase).I64(fuzzArrLen)
		p.arrF64 = g.NewLayout(0).F64(fuzzArrLen)
		digestLen /= 2
	} else {
		lay := g.NewLayout(0)
		p.arrI64 = lay.I64(fuzzArrLen)
		p.arrF64 = lay.F64(fuzzArrLen)
	}
	for i := 0; i < 4; i++ {
		p.i32s = append(p.i32s, f.LocalI32(fmt.Sprintf("a%d", i)))
		p.i64s = append(p.i64s, f.LocalI64(fmt.Sprintf("b%d", i)))
		p.f64s = append(p.f64s, f.LocalF64(fmt.Sprintf("d%d", i)))
	}
	// Seed locals deterministically.
	var stmts []g.Stmt
	for i, l := range p.i32s {
		stmts = append(stmts, g.Set(l, g.I32(int32(seed)+int32(i*7+1))))
	}
	for i, l := range p.i64s {
		stmts = append(stmts, g.Set(l, g.I64(seed*31+int64(i))))
	}
	for i, l := range p.f64s {
		stmts = append(stmts, g.Set(l, g.F64(float64(i)+0.5)))
	}
	if linear {
		p.off = f.LocalI32("off")
		stmts = append(stmts, g.Set(p.off, g.I32(int32(r.Intn(maxOff+1)))))
	}
	for i := 0; i < 12; i++ {
		stmts = append(stmts, p.stmt(3))
	}
	// Digest: all locals plus the memory arrays.
	digest := f.LocalI64("digest")
	idx := f.LocalI32("idx")
	mix := func(v g.Expr) g.Stmt {
		return g.Set(digest, g.Add(g.Mul(g.Get(digest), g.I64(1099511628211)), v))
	}
	for _, l := range p.i32s {
		stmts = append(stmts, mix(g.I64FromI32U(g.Get(l))))
	}
	for _, l := range p.i64s {
		stmts = append(stmts, mix(g.Get(l)))
	}
	for _, l := range p.f64s {
		stmts = append(stmts, mix(g.I64ReinterpretF64(g.Get(l))))
	}
	stmts = append(stmts,
		g.For(idx, g.I32(0), g.I32(digestLen),
			mix(p.arrI64.Load(g.Get(idx))),
			mix(g.I64ReinterpretF64(p.arrF64.Load(g.Get(idx)))),
		),
		g.Return(g.Get(digest)),
	)
	f.Body(stmts...)
	mb.Export("run", f)
	for page := uint32(0); page < 2; page++ {
		mb.Data(seededData(r, page))
	}
	return mb.Module()
}

// seededData is a data segment of seeded words inside the given 4 KiB
// page of memory, so that a template fork has bytes to restore there
// that the program reads: pages 0 and 1 hold the random kernels' two
// arrays, and page 0 the OOB variants' f64 array. Each word is a
// finite, non-negative f64, so it reads as an element of either type.
func seededData(r *rand.Rand, page uint32) (offset uint32, data []byte) {
	const words = 4096 / 8
	n := 1 + r.Intn(64)
	offset = page*4096 + uint32(8*r.Intn(words-n+1))
	for range n {
		data = binary.LittleEndian.AppendUint64(data, math.Float64bits(float64(r.Intn(1<<20))/16))
	}
	return offset, data
}

// foldOOB reaches out-of-bounds accesses through a
// foldable (i*N + j) << 3 chain: a row-major pass over an 8-byte matrix
// whose last rows lie past the end of its one page, reading, adding to
// and writing back every element. The folded, checked accesses of the
// loop's slow copy are what trap under trap, mprotect and uffd and what
// clamp redirects.
func foldOOB() (*wasm.Module, error) {
	const n = 96 // 96*96*8 bytes: rows from 85 on are past the page
	mb := g.NewModule()
	mb.Memory(1, 4)
	f := mb.Func("run", wasm.I64)
	i, j, digest := f.LocalI32("i"), f.LocalI32("j"), f.LocalI64("digest")
	at := func() g.Expr { return g.Shl(g.Add(g.Mul(g.Get(i), g.I32(n)), g.Get(j)), g.I32(3)) }
	f.Body(
		g.For(i, g.I32(0), g.I32(n),
			g.For(j, g.I32(0), g.I32(n),
				g.StoreI64(at(), 0, g.Add(g.LoadI64(at(), 0), g.I64FromI32U(g.Add(g.Get(i), g.Get(j))))),
				g.Set(digest, g.Add(g.Mul(g.Get(digest), g.I64(1099511628211)), g.LoadI64(at(), 0))),
			),
		),
		g.Return(g.Get(digest)),
	)
	mb.Export("run", f)
	return mb.Module()
}

// edgeLen is the trip count of edgeLoop's loop and
// three times the member count of edgeGroup's group.
const edgeLen = 64

// edgeLoop returns a counted loop over an i64 array whose
// last element ends past bytes past the end of the one page: the load
// is affine in the counter, so elision versions the loop, and its range
// check must cover the last iteration. With past = 1 that iteration's load
// covers the first byte past memory, so a span one iteration short
// runs it unchecked; with past = 0 the loop ends exactly on the last
// byte and the check passes.
func edgeLoop(past uint32) (*wasm.Module, error) {
	mb := g.NewModule()
	mb.Memory(1, 4)
	arr := g.ArrI64(65536 - edgeLen*8 + past)
	f := mb.Func("run", wasm.I64)
	i, digest := f.LocalI32("i"), f.LocalI64("digest")
	f.Body(
		g.For(i, g.I32(0), g.I32(edgeLen),
			g.Set(digest, g.Add(g.Mul(g.Get(digest), g.I64(1099511628211)), arr.Load(g.Get(i)))),
		),
		g.Return(g.Get(digest)),
	)
	mb.Export("run", f)
	return mb.Module()
}

// edgeGroup returns straight-line loads off one base whose
// last member straddles the end of memory by one byte: outside a loop
// elision leaves each load checked, and the last one must trap on that
// byte.
func edgeGroup() (*wasm.Module, error) {
	mb := g.NewModule()
	mb.Memory(1, 4)
	f := mb.Func("run", wasm.I64)
	p, digest := f.LocalI32("p"), f.LocalI64("digest")
	mix := func(off uint32) g.Stmt {
		return g.Set(digest, g.Add(g.Mul(g.Get(digest), g.I64(1099511628211)), g.LoadI64(g.Get(p), off)))
	}
	f.Body(
		g.Set(p, g.I32(65536-24+1)),
		mix(0), mix(8), mix(16),
		g.Return(g.Get(digest)),
	)
	mb.Export("run", f)
	return mb.Module()
}

// edgeWidth returns a straight-line run() that makes one checked
// access of w bytes (1, 2, 4 or 8), a load or a store, at 65536-w+1:
// it ends one byte past the one page, so it must trap there, and a
// check that is one byte loose at that width lets it through.
func edgeWidth(w uint32, store bool) (*wasm.Module, error) {
	load, st, v, widen := g.LoadU8, g.StoreU8, g.Expr(g.I32(-1)), g.I64FromI32U
	switch w {
	case 2:
		load, st = g.LoadU16, g.StoreU16
	case 4:
		load, st = g.LoadI32, g.StoreI32
	case 8:
		load, st, v, widen = g.LoadI64, g.StoreI64, g.I64(-1), func(e g.Expr) g.Expr { return e }
	}
	mb := g.NewModule()
	mb.Memory(1, 4)
	f := mb.Func("run", wasm.I64)
	p, digest := f.LocalI32("p"), f.LocalI64("digest")
	access := g.Set(digest, widen(load(g.Get(p), 0)))
	if store {
		access = st(g.Get(p), 0, v)
	}
	f.Body(
		g.Set(p, g.I32(int32(65536-w+1))),
		access,
		g.Return(g.Get(digest)),
	)
	mb.Export("run", f)
	return mb.Module()
}

// copies returns a straight-line run() over four i32 locals
// that leaves a local's old value on the stack while it writes the
// local, which the DSL's expression trees never do: by local.tee, by
// local.set of another local, and by local.set of an ALU result (which
// the optimizer forwards into the producer). The old value is then
// combined with the new one. An optimizer that kept treating the stale
// copy as the local would read the new value twice; the digest of the
// locals, mixed after every snippet, tells.
func copies(seed int64) (*wasm.Module, error) {
	r := rand.New(rand.NewSource(seed))
	const n, digest = 4, 4 // i32 locals 0..3, the i64 digest in local 4
	ops := []wasm.Opcode{wasm.OpI32Add, wasm.OpI32Sub, wasm.OpI32Xor, wasm.OpI32Mul}
	local := func() uint64 { return uint64(r.Intn(n)) }
	k := func() wasm.Instr { return ri(wasm.OpI32Const, uint64(r.Int31())|1) }
	op := func() wasm.Instr { return ri(ops[r.Intn(len(ops))]) }
	var body []wasm.Instr
	for i := range uint64(n) {
		body = append(body, k(), ri(wasm.OpLocalSet, i))
	}
	for range 24 {
		x, z := local(), local()
		body = append(body, ri(wasm.OpLocalGet, x))
		switch r.Intn(3) {
		case 0: // old x, then x = k by tee
			body = append(body, k(), ri(wasm.OpLocalTee, x))
		case 1: // old x, then x = y, then k
			body = append(body, ri(wasm.OpLocalGet, local()), ri(wasm.OpLocalSet, x), k())
		default: // old x, then x = y op k, then x
			body = append(body, ri(wasm.OpLocalGet, local()), k(), op(), ri(wasm.OpLocalSet, x), ri(wasm.OpLocalGet, x))
		}
		body = append(body, op(), ri(wasm.OpLocalSet, z))
		for i := range uint64(n) {
			body = append(body,
				ri(wasm.OpLocalGet, digest), ri(wasm.OpI64Const, 1099511628211), ri(wasm.OpI64Mul),
				ri(wasm.OpLocalGet, i), ri(wasm.OpI64ExtendI32U), ri(wasm.OpI64Add),
				ri(wasm.OpLocalSet, digest))
		}
	}
	body = append(body, ri(wasm.OpLocalGet, digest), ri(wasm.OpEnd))
	return &wasm.Module{
		Types:   []wasm.FuncType{{Results: []wasm.ValueType{wasm.I64}}},
		Funcs:   []uint32{0},
		Code:    []wasm.Code{{Locals: []wasm.ValueType{wasm.I32, wasm.I32, wasm.I32, wasm.I32, wasm.I64}, Body: body}},
		Exports: []wasm.Export{{Name: "run", Kind: wasm.ExternFunc}},
	}, nil
}

func ri(op wasm.Opcode, a ...uint64) wasm.Instr {
	in := wasm.Instr{Op: op}
	if len(a) > 0 {
		in.A = a[0]
	}
	return in
}

// LatchSeeds generate, with linear indexes, programs with nested
// counted loops that elision versions, so their back-edges become
// two-target latches whose exit is not the next pc (the slow clone sits
// in between), inside an outer loop that has a latch of its own: the
// shape the late pass's jump threading and the second branch target
// exist for.
var LatchSeeds = []int64{5, 10}
