package compiled_test

import (
	"math"
	"testing"

	"leapsandbounds/internal/compiled"
	"leapsandbounds/internal/core"
	"leapsandbounds/internal/difftest"
	"leapsandbounds/internal/isa"
	"leapsandbounds/internal/mem"
	"leapsandbounds/internal/trap"
	"leapsandbounds/internal/wasm"
	g "leapsandbounds/internal/wasmgen"
)

// agree runs calls on m on wasm3, wasmtime and wavm (Check, rule Same)
// and returns the Outcome they agree on.
func agree(t *testing.T, m *wasm.Module, calls ...difftest.Call) difftest.Outcome {
	t.Helper()
	engines := []difftest.Engine{wasm3, wasmtime, wavm}
	return difftest.Check(t, difftest.Row{Module: m, Calls: calls, Engines: engines, Rule: difftest.Same})[mem.Trap]
}

// result is agree for calls that must not trap: the digest of their
// results.
func result(t *testing.T, m *wasm.Module, calls ...difftest.Call) uint64 {
	t.Helper()
	o := agree(t, m, calls...)
	if o.Trapped {
		t.Fatalf("every engine trapped: %v", o)
	}
	return o.Digest
}

// built is mb's module.
func built(t *testing.T, mb *g.ModuleBuilder) *wasm.Module {
	t.Helper()
	m, err := mb.Module()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func call(export string, args ...uint64) difftest.Call {
	return difftest.Call{Export: export, Args: args}
}

func TestDiffArith(t *testing.T) {
	mb := g.NewModule()
	f := mb.Func("mix", wasm.I64)
	a := f.ParamI64("a")
	b := f.ParamI64("b")
	f.Body(g.Return(
		g.Xor(
			g.Mul(g.Add(g.Get(a), g.I64(12345)), g.Get(b)),
			g.ShrU(g.Get(a), g.I64(7)),
		),
	))
	mb.Export("mix", f)
	result(t, built(t, mb), call("mix", 0xdeadbeefcafe, 31337))
}

func TestDiffLoopsAndMemory(t *testing.T) {
	mb := g.NewModule()
	mb.Memory(1, 8)
	lay := g.NewLayout(0)
	arr := lay.F64(4096)
	f := mb.Func("stencil", wasm.F64)
	n := f.ParamI32("n")
	iter := f.ParamI32("iter")
	i := f.LocalI32("i")
	tl := f.LocalI32("t")
	acc := f.LocalF64("acc")
	f.Body(
		g.For(i, g.I32(0), g.Get(n),
			arr.Store(g.Get(i), g.Div(g.F64(1.0), g.Add(g.F64FromI32(g.Get(i)), g.F64(1.0)))),
		),
		g.For(tl, g.I32(0), g.Get(iter),
			g.For(i, g.I32(1), g.Sub(g.Get(n), g.I32(1)),
				arr.Store(g.Get(i), g.Mul(g.F64(0.3333),
					g.Add(g.Add(arr.Load(g.Sub(g.Get(i), g.I32(1))), arr.Load(g.Get(i))),
						arr.Load(g.Add(g.Get(i), g.I32(1)))))),
			),
		),
		g.For(i, g.I32(0), g.Get(n),
			g.Set(acc, g.Add(g.Get(acc), arr.Load(g.Get(i)))),
		),
		g.Return(g.Get(acc)),
	)
	mb.Export("stencil", f)
	got := result(t, built(t, mb), call("stencil", 512, 20))
	if math.IsNaN(math.Float64frombits(got)) {
		t.Error("NaN checksum")
	}
}

func TestDiffCallsAndIndirect(t *testing.T) {
	mb := g.NewModule()
	sq := mb.Func("sq", wasm.I32)
	x := sq.ParamI32("x")
	sq.Body(g.Return(g.Mul(g.Get(x), g.Get(x))))
	cb := mb.Func("cb", wasm.I32)
	y := cb.ParamI32("y")
	cb.Body(g.Return(g.Mul(g.Mul(g.Get(y), g.Get(y)), g.Get(y))))
	mb.Table(sq, cb)

	f := mb.Func("apply", wasm.I32)
	n := f.ParamI32("n")
	i := f.LocalI32("i")
	acc := f.LocalI32("acc")
	f.Body(
		g.For(i, g.I32(0), g.Get(n),
			g.Set(acc, g.Add(g.Get(acc),
				g.CallIndirect(sq, g.Rem(g.Get(i), g.I32(2)), g.Get(i)))),
		),
		g.Return(g.Add(g.Get(acc), g.Call(sq, g.Get(n)))),
	)
	mb.Export("apply", f)
	result(t, built(t, mb), call("apply", 50))
}

func TestDiffBrTable(t *testing.T) {
	mb := g.NewModule()
	f := mb.Func("sw", wasm.I32)
	x := f.ParamI32("x")
	r := f.LocalI32("r")
	// Hand-roll a br_table via nested blocks is not in the DSL;
	// approximate with chained ifs plus division/remainder mixes to
	// cover the same dispatch paths across engines.
	f.Body(
		g.IfElse(g.Eq(g.Get(x), g.I32(0)),
			[]g.Stmt{g.Set(r, g.I32(100))},
			[]g.Stmt{g.IfElse(g.Eq(g.Get(x), g.I32(1)),
				[]g.Stmt{g.Set(r, g.I32(200))},
				[]g.Stmt{g.Set(r, g.Mul(g.Get(x), g.I32(7)))},
			)},
		),
		g.Return(g.Get(r)),
	)
	mb.Export("sw", f)
	result(t, built(t, mb), call("sw", 0), call("sw", 1), call("sw", 2), call("sw", 9))
}

func TestDiffTrapping(t *testing.T) {
	mb := g.NewModule()
	f := mb.Func("divmod", wasm.I32)
	a := f.ParamI32("a")
	b := f.ParamI32("b")
	f.Body(g.Return(g.Add(g.Div(g.Get(a), g.Get(b)), g.Rem(g.Get(a), g.Get(b)))))
	mb.Export("divmod", f)
	minInt32, minusOne := uint64(math.MaxUint32&0x80000000), ^uint64(0)&0xffffffff
	// One instance takes both traps and then still divides.
	if o := agree(t, built(t, mb), call("divmod", 10, 0), call("divmod", minInt32, minusOne), call("divmod", 17, 5)); o.Kind != trap.DivByZero {
		t.Errorf("div by zero: %+v", o)
	}
	if o := agree(t, built(t, mb), call("divmod", minInt32, minusOne)); o.Kind != trap.IntOverflow {
		t.Errorf("MinInt32 / -1: %+v", o)
	}
	if got := result(t, built(t, mb), call("divmod", 17, 5)); got != 3+2 {
		t.Errorf("divmod(17,5) = %d", got)
	}
}

func TestOptimizerPreservesSemantics(t *testing.T) {
	// A kernel heavy in const/local patterns the optimizer targets.
	mb := g.NewModule()
	mb.Memory(1, 2)
	lay := g.NewLayout(0)
	arr := lay.I32(1024)
	f := mb.Func("opt", wasm.I32)
	n := f.ParamI32("n")
	i := f.LocalI32("i")
	a := f.LocalI32("a")
	b := f.LocalI32("b")
	f.Body(
		g.Set(a, g.Add(g.I32(3), g.I32(4))),  // const fold
		g.Set(b, g.Mul(g.Get(a), g.I32(10))), // local+const
		g.For(i, g.I32(0), g.Get(n),
			arr.Store(g.Get(i), g.Add(g.Mul(g.Get(i), g.Get(b)), g.I32(5))),
		),
		g.Set(a, g.I32(0)),
		g.For(i, g.I32(0), g.Get(n),
			g.Set(a, g.Add(g.Get(a), arr.Load(g.Get(i)))),
		),
		g.Return(g.Get(a)),
	)
	mb.Export("opt", f)
	result(t, built(t, mb), call("opt", 200))
}

func TestWavmExecutesFewerOps(t *testing.T) {
	mb := g.NewModule()
	mb.Memory(1, 2)
	lay := g.NewLayout(0)
	arr := lay.F64(1024)
	f := mb.Func("k", wasm.F64)
	n := f.ParamI32("n")
	i := f.LocalI32("i")
	acc := f.LocalF64("acc")
	f.Body(
		g.For(i, g.I32(0), g.Get(n),
			arr.Store(g.Get(i), g.Mul(g.F64FromI32(g.Get(i)), g.F64(1.5))),
		),
		g.For(i, g.I32(0), g.Get(n),
			g.Set(acc, g.Add(g.Get(acc), arr.Load(g.Get(i)))),
		),
		g.Return(g.Get(acc)),
	)
	mb.Export("k", f)
	m, err := mb.Module()
	if err != nil {
		t.Fatal(err)
	}
	run := func(e core.Engine) int64 {
		cm, err := e.Compile(m)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := cm.Instantiate(core.Config{Profile: isa.X86_64(), CountCycles: true}, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer inst.Close()
		if _, err := inst.Invoke("k", 1000); err != nil {
			t.Fatal(err)
		}
		return inst.Counts().Total()
	}
	baseline := run(compiled.NewWasmtime())
	optimized := run(compiled.NewWAVM())
	if optimized >= baseline {
		t.Errorf("wavm executed %d ops, baseline %d: optimizer had no effect", optimized, baseline)
	}
	// The optimizer should cut a substantial fraction on this kernel.
	if float64(optimized) > 0.85*float64(baseline) {
		t.Errorf("wavm ops %d vs baseline %d: expected >15%% reduction", optimized, baseline)
	}
}

func TestStrategiesAgreeOnCompiled(t *testing.T) {
	mb := g.NewModule()
	mb.Memory(1, 8)
	lay := g.NewLayout(0)
	arr := lay.I64(8192)
	f := mb.Func("churn", wasm.I64)
	n := f.ParamI32("n")
	i := f.LocalI32("i")
	acc := f.LocalI64("acc")
	f.Body(
		g.Drop(g.MemGrow(g.I32(2))),
		g.For(i, g.I32(0), g.Get(n),
			arr.Store(g.Get(i), g.Mul(g.I64FromI32(g.Get(i)), g.I64(0x9e3779b9))),
		),
		g.For(i, g.I32(0), g.Get(n),
			g.Set(acc, g.Xor(g.Get(acc), arr.Load(g.Get(i)))),
		),
		g.Return(g.Get(acc)),
	)
	mb.Export("churn", f)
	result(t, built(t, mb), call("churn", 8000))
}
