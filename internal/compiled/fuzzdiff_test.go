package compiled_test

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"leapsandbounds/internal/compiled"
	"leapsandbounds/internal/core"
	"leapsandbounds/internal/interp"
	"leapsandbounds/internal/isa"
	"leapsandbounds/internal/mem"
	"leapsandbounds/internal/tiered"
	"leapsandbounds/internal/trap"
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
	// (genProgram): off is a local no statement writes after the
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

// buildRandomProgram returns a module whose run() executes a random
// statement list and returns a digest of all state.
func buildRandomProgram(seed int64) (*wasm.Module, error) { return genProgram(seed, false, false) }

// buildOOBProgram is buildRandomProgram with the i64 array straddling
// the memory-size boundary: masked indices land on either side, so
// runs make a data-dependent mix of in-bounds and out-of-bounds
// accesses.
func buildOOBProgram(seed int64) (*wasm.Module, error) { return genProgram(seed, true, false) }

// oobArrBase positions the straddling array for the out-of-bounds
// differential test: with Memory(1,4) the wasm-visible size is
// 64 KiB and the backing 256 KiB, so an i64 array of fuzzArrLen
// elements starting here has its first half below the size boundary
// and its second half beyond it — but never beyond the backing, so
// the none strategy's "MMU window" stays silent, exactly as real
// hardware inside the 8 GiB reservation would be.
const oobArrBase = 65536 - fuzzArrLen*8/2

// genProgram returns a module whose run() executes a random statement
// list and returns a digest of all state. With oob the i64 array
// straddles the memory-size boundary (oobArrBase) and the digest reads
// only its in-bounds half (reading the rest would force a trap on
// every strategy that traps, flattening the per-seed variety the OOB
// tests exist to exercise). With linear, indexes inside loops are
// mostly linear (progGen.index).
func genProgram(seed int64, oob, linear bool) (*wasm.Module, error) {
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
	return mb.Module()
}

// buildFoldOOBProgram reaches out-of-bounds accesses through a
// foldable (i*N + j) << 3 chain: a row-major pass over an 8-byte matrix
// whose last rows lie past the end of its one page, reading, adding to
// and writing back every element. The folded, checked accesses of the
// loop's slow copy are what trap under trap, mprotect and uffd and what
// clamp redirects.
func buildFoldOOBProgram() (*wasm.Module, error) {
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

// edgeLen is the trip count of buildEdgeLoopProgram's loop and
// three times the member count of buildEdgeGroupProgram's group.
const edgeLen = 64

// buildEdgeLoopProgram returns a counted loop over an i64 array whose
// last element ends past bytes past the end of the one page: the load
// is affine in the counter, so elision versions the loop, and its range
// check must cover the last iteration. With past = 1 that iteration's load
// covers the first byte past memory, so a span one iteration short
// runs it unchecked; with past = 0 the loop ends exactly on the last
// byte and the check passes.
func buildEdgeLoopProgram(past uint32) (*wasm.Module, error) {
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

// buildEdgeGroupProgram returns straight-line loads off one base whose
// last member straddles the end of memory by one byte: outside a loop
// elision leaves each load checked, and the last one must trap on that
// byte.
func buildEdgeGroupProgram() (*wasm.Module, error) {
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

// oobOutcome is one (engine, strategy) execution result.
type oobOutcome struct {
	trapped bool
	digest  uint64
}

// TestDifferentialOOBTrapEquivalence generates programs whose memory
// traffic straddles the bounds-check boundary and runs each on the
// compiled, interpreted and tiered engines under all five strategies.
// Within a strategy every engine must agree exactly (trap/no-trap and
// digest); across strategies the paper's semantics partition them:
// trap, mprotect and uffd are exactly equivalent (they all detect the
// violation), clamp never traps (accesses are redirected to the end
// of memory), and none never traps for accesses inside the backing.
// The edge rows put accesses on the last byte of memory, the loop rows
// behind elision's range checks and the group row as straight-line
// checked loads: whether trap traps there is fixed, and a check one
// byte or one iteration short makes wavm miss the trap the others take.
func TestDifferentialOOBTrapEquivalence(t *testing.T) {
	seeds := 30
	if testing.Short() {
		seeds = 6
	}
	type row struct {
		name  string
		build func() (*wasm.Module, error)
		traps string // "yes" or "no" when the row fixes it
	}
	rows := []row{
		{"fold", buildFoldOOBProgram, ""},
		{"edge-loop", func() (*wasm.Module, error) { return buildEdgeLoopProgram(1) }, "yes"},
		{"edge-loop-inbounds", func() (*wasm.Module, error) { return buildEdgeLoopProgram(0) }, "no"},
		{"edge-group", buildEdgeGroupProgram, "yes"},
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		rows = append(rows, row{fmt.Sprintf("seed=%d", seed), func() (*wasm.Module, error) { return buildOOBProgram(seed) }, ""})
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			m, err := row.build()
			if err != nil {
				t.Fatalf("generator produced invalid module: %v", err)
			}
			// The interpreter entry must be the configurable variant:
			// NewWasm3 pins the Trap strategy (as real wasm3 has no
			// others), which would defeat the strategy matrix.
			v8 := tiered.New()
			defer v8.Close()
			engines := []struct {
				name string
				eng  core.Engine
			}{
				{"wavm", compiled.NewWAVM()},
				{"interp", interp.NewConfigurable()},
				{"v8", v8},
			}
			outcomes := make(map[mem.Strategy]oobOutcome)
			for _, e := range engines {
				cm, err := e.eng.Compile(m)
				if err != nil {
					t.Fatalf("%s: %v", e.name, err)
				}
				for _, s := range mem.Strategies() {
					inst, err := cm.Instantiate(core.Config{Profile: isa.X86_64(), Strategy: s}, nil)
					if err != nil {
						t.Fatalf("%s/%v: %v", e.name, s, err)
					}
					res, ierr := inst.Invoke("run")
					inst.Close()
					got := oobOutcome{trapped: ierr != nil}
					if ierr != nil {
						var tr *trap.Trap
						if !errors.As(ierr, &tr) || tr.Kind != trap.OutOfBounds {
							t.Fatalf("%s/%v: non-OOB failure: %v", e.name, s, ierr)
						}
					} else {
						got.digest = res[0]
					}
					if prev, ok := outcomes[s]; !ok {
						outcomes[s] = got
					} else if prev != got {
						t.Errorf("%s/%v: outcome %+v, other engines got %+v", e.name, s, got, prev)
					}
				}
			}
			t.Logf("trapping strategies trapped=%v", outcomes[mem.Trap].trapped)
			if row.traps != "" && outcomes[mem.Trap].trapped != (row.traps == "yes") {
				t.Errorf("trap trapped=%v, the program fixes %s", outcomes[mem.Trap].trapped, row.traps)
			}
			// Trap, mprotect and uffd are exactly equivalent.
			vmGroup := []mem.Strategy{mem.Trap, mem.Mprotect, mem.Uffd}
			for _, s := range vmGroup[1:] {
				if outcomes[s] != outcomes[vmGroup[0]] {
					t.Errorf("%v outcome %+v differs from %v outcome %+v",
						s, outcomes[s], vmGroup[0], outcomes[vmGroup[0]])
				}
			}
			// Clamp and none have defined non-trapping semantics here.
			for _, s := range []mem.Strategy{mem.Clamp, mem.None} {
				if outcomes[s].trapped {
					t.Errorf("%v trapped; it must never trap on this program", s)
				}
			}
			// A program that made no OOB access must agree everywhere.
			if !outcomes[mem.Trap].trapped {
				for _, s := range []mem.Strategy{mem.Clamp, mem.None} {
					if outcomes[s].digest != outcomes[mem.Trap].digest {
						t.Errorf("no OOB access, yet %v digest %#x != trap digest %#x",
							s, outcomes[s].digest, outcomes[mem.Trap].digest)
					}
				}
			}
		})
	}
}

// TestClampRedirectSemantics pins clamp's defined behaviour exactly:
// an out-of-bounds n-byte access is redirected to sizeBytes-n, for
// stores and loads alike, on every engine.
func TestClampRedirectSemantics(t *testing.T) {
	const marker = int64(0x5ca1ab1e)
	mb := g.NewModule()
	mb.Memory(1, 4)
	arr := g.NewLayout(0).I64(1) // base 0, element size 8
	f := mb.Func("run", wasm.I64)
	// Store OOB at byte 160000 → redirected to 65528 (= 65536-8).
	// Load in-bounds from 65528, then load OOB from 240000 (also
	// redirected to 65528): both must observe the marker.
	f.Body(
		arr.Store(g.I32(20000), g.I64(marker)),
		g.Return(g.Add(arr.Load(g.I32(65528/8)), g.Mul(arr.Load(g.I32(30000)), g.I64(31)))),
	)
	mb.Export("run", f)
	m, err := mb.Module()
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(marker + marker*31)

	v8 := tiered.New()
	defer v8.Close()
	engines := []struct {
		name string
		eng  core.Engine
	}{
		{"wavm", compiled.NewWAVM()},
		{"wasmtime", compiled.NewWasmtime()},
		{"interp", interp.NewConfigurable()},
		{"v8", v8},
	}
	for _, e := range engines {
		cm, err := e.eng.Compile(m)
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		inst, err := cm.Instantiate(core.Config{Profile: isa.X86_64(), Strategy: mem.Clamp}, nil)
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		res, err := inst.Invoke("run")
		inst.Close()
		if err != nil {
			t.Fatalf("%s: clamp must not trap: %v", e.name, err)
		}
		if res[0] != want {
			t.Errorf("%s: clamp redirect result %#x, want %#x", e.name, res[0], want)
		}
	}
}

// TestDifferentialRandomPrograms runs randomly generated programs on
// every engine and strategy and requires exact agreement — the
// broadest correctness net over the two execution backends and the
// optimizer.
func TestDifferentialRandomPrograms(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 8
	}
	engines := map[string]core.Engine{
		"wasm3":    interp.NewWasm3(),
		"wasmtime": compiled.NewWasmtime(),
		"wavm":     compiled.NewWAVM(),
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			m, err := buildRandomProgram(seed)
			if err != nil {
				t.Fatalf("generator produced invalid module: %v", err)
			}
			var want uint64
			first := true
			for name, e := range engines {
				cm, err := e.Compile(m)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				strategies := []mem.Strategy{mem.None, mem.Mprotect}
				if name == "wavm" {
					strategies = mem.Strategies() // full matrix on one engine
				}
				for _, s := range strategies {
					inst, err := cm.Instantiate(core.Config{Profile: isa.X86_64(), Strategy: s}, nil)
					if err != nil {
						t.Fatalf("%s/%v: %v", name, s, err)
					}
					res, err := inst.Invoke("run")
					inst.Close()
					if err != nil {
						t.Fatalf("%s/%v: %v", name, s, err)
					}
					if first {
						want = res[0]
						first = false
					} else if res[0] != want {
						t.Errorf("%s/%v: digest %#x, want %#x", name, s, res[0], want)
					}
				}
			}
		})
	}
}
