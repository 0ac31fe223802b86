package compiled_test

import (
	"testing"

	"leapsandbounds/internal/compiled"
	"leapsandbounds/internal/core"
	"leapsandbounds/internal/difftest"
	"leapsandbounds/internal/isa"
	"leapsandbounds/internal/mem"
	"leapsandbounds/internal/wasm"
	g "leapsandbounds/internal/wasmgen"
	"leapsandbounds/internal/workloads"
)

// The tests in this file pin where elision fires and where it does
// not, via deltas of the process-wide compiled.Stats() counters. None
// of them is parallel, and this package's parallel subtests finish
// before their parent test returns, so no other compile runs inside a
// delta and the exact ones hold.

// TestHoistLoopInvariantChecks compiles a gemm-shaped kernel — three
// nested counted loops whose accesses are affine in the induction
// variables — and requires the loop-versioning hoist to fire, then
// checks all five strategies agree on the result.
func TestHoistLoopInvariantChecks(t *testing.T) {
	mb := g.NewModule()
	mb.Memory(4, 16)
	lay := g.NewLayout(0)
	const n = 24
	A := lay.F64(n * n)
	B := lay.F64(n * n)
	C := lay.F64(n * n)
	f := mb.Func("run", wasm.F64)
	i := f.LocalI32("i")
	j := f.LocalI32("j")
	k := f.LocalI32("k")
	acc := f.LocalF64("acc")
	idx := func(r, c g.Expr) g.Expr { return g.Add(g.Mul(r, g.I32(n)), c) }
	f.Body(
		g.For(i, g.I32(0), g.I32(n),
			g.For(j, g.I32(0), g.I32(n),
				g.Set(acc, g.F64(0)),
				g.For(k, g.I32(0), g.I32(n),
					g.Set(acc, g.Add(g.Get(acc), g.Mul(
						A.Load(idx(g.Get(i), g.Get(k))),
						B.Load(idx(g.Get(k), g.Get(j))),
					))),
				),
				C.Store(idx(g.Get(i), g.Get(j)), g.Get(acc)),
			),
		),
		g.Return(C.Load(g.I32(5))),
	)
	mb.Export("run", f)
	m, err := mb.Module()
	if err != nil {
		t.Fatal(err)
	}
	before := compiled.Stats()
	eng := compiled.NewWAVM()
	eng.SetCache(nil)
	if _, err := eng.Compile(m); err != nil {
		t.Fatal(err)
	}
	after := compiled.Stats()
	if after.Hoisted == before.Hoisted {
		t.Errorf("no hoisted checks on a gemm-shaped kernel")
	}
	if after.ChecksElided == before.ChecksElided {
		t.Errorf("no elided accesses on a gemm-shaped kernel")
	}
	difftest.Check(t, difftest.Row{Module: m, Engines: []difftest.Engine{wavm}, Rule: difftest.Same})
}

// TestStraightLineAccessesStayChecked compiles traffic that elision
// leaves alone and requires each access to keep its own check:
// straight-line same-base accesses (two loads + two stores, no loop:
// outside a loop there is nothing to version), and the two counted
// loops no registered workload has — one with a call in its body, one
// stepping by 2 (uncheckedLoops).
func TestStraightLineAccessesStayChecked(t *testing.T) {
	mb := g.NewModule()
	mb.Memory(1, 4)
	f := mb.Func("run", wasm.I64)
	a := f.LocalI64("a")
	b := f.LocalI64("b")
	arr := g.NewLayout(0).I64(64)
	f.Body(
		g.Set(a, arr.Load(g.I32(2))),
		g.Set(b, arr.Load(g.I32(3))),
		arr.Store(g.I32(2), g.Get(b)),
		arr.Store(g.I32(3), g.Get(a)),
		g.Return(g.Add(g.Get(a), g.Get(b))),
	)
	mb.Export("run", f)
	straight, err := mb.Module()
	if err != nil {
		t.Fatal(err)
	}
	rows := append([]namedModule{{"straight-line", straight}}, uncheckedLoops(t)...)
	// Every access of each module, checked one by one.
	accesses := map[string]int64{"straight-line": 4, "call-in-loop": 2, "step-2-loop": 3}
	for _, row := range rows {
		before := compiled.Stats()
		eng := compiled.NewWAVM()
		eng.SetCache(nil)
		if _, err := eng.Compile(row.m); err != nil {
			t.Fatal(err)
		}
		after := compiled.Stats()
		if d := after.ChecksElided - before.ChecksElided; d != 0 {
			t.Errorf("%s: %d checks elided, want 0", row.name, d)
		}
		if d := after.ChecksEmitted - before.ChecksEmitted; d != accesses[row.name] {
			t.Errorf("%s: %d checks emitted, want its %d accesses", row.name, d, accesses[row.name])
		}
		difftest.Check(t, difftest.Row{Module: row.m, Engines: []difftest.Engine{wavm}, Rule: difftest.Same})
	}
}

// uncheckedLoops are counted loops of affine accesses that elision
// does not version: "call-in-loop" calls a function in its body,
// "step-2-loop" advances its induction by 2. Both are in the golden
// set too (goldenExtras).
func uncheckedLoops(t *testing.T) []namedModule {
	t.Helper()
	arr := g.NewLayout(0).I64(64)

	mb := g.NewModule()
	mb.Memory(1, 4)
	id := mb.Func("id", wasm.I32)
	x := id.ParamI32("x")
	id.Body(g.Return(g.Get(x)))
	f := mb.Func("run", wasm.I64)
	i := f.LocalI32("i")
	acc := f.LocalI64("acc")
	f.Body(
		g.For(i, g.I32(0), g.I32(32),
			g.Set(acc, g.Add(g.Get(acc), arr.Load(g.Get(i)))),
			arr.Store(g.Get(i), g.I64FromI32(g.Call(id, g.Get(i)))),
		),
		g.Return(g.Get(acc)),
	)
	mb.Export("run", f)
	call, err := mb.Module()
	if err != nil {
		t.Fatal(err)
	}

	mb = g.NewModule()
	mb.Memory(1, 4)
	f = mb.Func("run", wasm.I64)
	i = f.LocalI32("i")
	acc = f.LocalI64("acc")
	f.Body(
		g.ForStep(i, g.I32(0), g.I32(62), g.I32(2),
			g.Set(acc, g.Add(g.Get(acc), arr.Load(g.Get(i)))),
			g.Set(acc, g.Xor(g.Get(acc), arr.Load(g.Add(g.Get(i), g.I32(1))))),
			arr.Store(g.Get(i), g.Get(acc)),
		),
		g.Return(g.Get(acc)),
	)
	mb.Export("run", f)
	step2, err := mb.Module()
	if err != nil {
		t.Fatal(err)
	}
	return []namedModule{{"call-in-loop", call}, {"step-2-loop", step2}}
}

// TestGemmElisionStats compiles the real gemm workload and requires
// the full pipeline to engage on it: checks elided, and address-mode
// chains fused into the accesses (the run-loop analog
// of folding the scale/index/base arithmetic into the memory
// operand). It then runs the kernel under the trap strategy, the one
// BenchmarkGemmCompiled runs under.
func TestGemmElisionStats(t *testing.T) {
	wl, err := workloads.ByName("gemm")
	if err != nil {
		t.Fatal(err)
	}
	module, _ := wl.Build(workloads.Test)
	before := compiled.Stats()
	eng := compiled.NewWAVM()
	eng.SetCache(nil)
	cm, err := eng.CompileModule(module)
	if err != nil {
		t.Fatal(err)
	}
	after := compiled.Stats()
	t.Logf("gemm delta: emitted=%d elided=%d hoisted=%d fused=%d",
		after.ChecksEmitted-before.ChecksEmitted,
		after.ChecksElided-before.ChecksElided,
		after.Hoisted-before.Hoisted,
		after.AddrFused-before.AddrFused)
	if after.ChecksElided == before.ChecksElided {
		t.Errorf("no elided checks on gemm")
	}
	if after.Hoisted == before.Hoisted {
		t.Errorf("no hoisted checks on gemm")
	}
	if after.AddrFused == before.AddrFused {
		t.Errorf("no fused address chains on gemm")
	}
	inst, err := cm.Instantiate(core.Config{Profile: isa.X86_64(), Strategy: mem.Trap}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	if _, err := inst.Invoke("run"); err != nil {
		t.Fatal(err)
	}
}
