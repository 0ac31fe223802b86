package interp_test

import (
	"math"
	"testing"

	"leapsandbounds/internal/core"
	"leapsandbounds/internal/difftest"
	"leapsandbounds/internal/interp"
	"leapsandbounds/internal/isa"
	"leapsandbounds/internal/mem"
	"leapsandbounds/internal/wasm"
	g "leapsandbounds/internal/wasmgen"
)

func compile(t *testing.T, mb *g.ModuleBuilder) core.CompiledModule {
	t.Helper()
	m, err := mb.Module()
	if err != nil {
		t.Fatal(err)
	}
	cm, err := interp.NewWasm3().Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	return cm
}

func instantiate(t *testing.T, cm core.CompiledModule) core.Instance {
	t.Helper()
	inst, err := cm.Instantiate(core.Config{Profile: isa.X86_64()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { inst.Close() })
	return inst
}

func call1(t *testing.T, inst core.Instance, name string, args ...uint64) uint64 {
	t.Helper()
	res, err := inst.Invoke(name, args...)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if len(res) != 1 {
		t.Fatalf("%s: %d results", name, len(res))
	}
	return res[0]
}

func TestArithLoop(t *testing.T) {
	mb := sumsqModule()
	inst := instantiate(t, compile(t, mb))
	got := call1(t, inst, "sumsq", 10)
	if got != 285 {
		t.Errorf("sumsq(10) = %d, want 285", got)
	}
	if got := call1(t, inst, "sumsq", 0); got != 0 {
		t.Errorf("sumsq(0) = %d, want 0", got)
	}
}

func sumsqModule() *g.ModuleBuilder {
	// sum of i*i for i in [0,n)
	mb := g.NewModule()
	f := mb.Func("sumsq", wasm.I32)
	n := f.ParamI32("n")
	i := f.LocalI32("i")
	acc := f.LocalI32("acc")
	f.Body(
		g.For(i, g.I32(0), g.Get(n),
			g.Set(acc, g.Add(g.Get(acc), g.Mul(g.Get(i), g.Get(i)))),
		),
		g.Return(g.Get(acc)),
	)
	mb.Export("sumsq", f)
	return mb
}

func TestRecursiveCalls(t *testing.T) {
	mb := fibModule()
	inst := instantiate(t, compile(t, mb))
	if got := call1(t, inst, "fib", 20); got != 6765 {
		t.Errorf("fib(20) = %d, want 6765", got)
	}
}

func fibModule() *g.ModuleBuilder {
	mb := g.NewModule()
	fib := mb.Func("fib", wasm.I32)
	n := fib.ParamI32("n")
	fib.Body(
		If(g.Lt(g.Get(n), g.I32(2)), g.Return(g.Get(n))),
		g.Return(g.Add(
			g.Call(fib, g.Sub(g.Get(n), g.I32(1))),
			g.Call(fib, g.Sub(g.Get(n), g.I32(2))),
		)),
	)
	mb.Export("fib", fib)
	return mb
}

// If re-exported for brevity in tests.
func If(cond g.Expr, body ...g.Stmt) g.Stmt { return g.If(cond, body...) }

func TestMemoryKernel(t *testing.T) {
	mb := kernelModule()
	inst := instantiate(t, compile(t, mb))
	// sum 3*i for i<100 = 3*4950
	if got := call1(t, inst, "kernel", 100); got != 14850 {
		t.Errorf("kernel(100) = %d, want 14850", got)
	}
}

func kernelModule() *g.ModuleBuilder {
	// Write i*3 into an i32 array, then sum it back.
	mb := g.NewModule()
	mb.Memory(1, 4)
	lay := g.NewLayout(0)
	arr := lay.I32(1000)

	f := mb.Func("kernel", wasm.I32)
	n := f.ParamI32("n")
	i := f.LocalI32("i")
	acc := f.LocalI32("acc")
	f.Body(
		g.For(i, g.I32(0), g.Get(n),
			arr.Store(g.Get(i), g.Mul(g.Get(i), g.I32(3))),
		),
		g.For(i, g.I32(0), g.Get(n),
			g.Set(acc, g.Add(g.Get(acc), arr.Load(g.Get(i)))),
		),
		g.Return(g.Get(acc)),
	)
	mb.Export("kernel", f)
	return mb
}

func TestFloatKernel(t *testing.T) {
	mb := dotModule()
	inst := instantiate(t, compile(t, mb))
	got := math.Float64frombits(call1(t, inst, "dot", 10))
	want := 0.0
	for i := 0; i < 10; i++ {
		v := float64(i) * 0.5
		want += v * v
	}
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("dot = %v, want %v", got, want)
	}
}

func dotModule() *g.ModuleBuilder {
	mb := g.NewModule()
	mb.Memory(1, 4)
	lay := g.NewLayout(0)
	a := lay.F64(256)

	f := mb.Func("dot", wasm.F64)
	n := f.ParamI32("n")
	i := f.LocalI32("i")
	acc := f.LocalF64("acc")
	f.Body(
		g.For(i, g.I32(0), g.Get(n),
			a.Store(g.Get(i), g.Mul(g.F64FromI32(g.Get(i)), g.F64(0.5))),
		),
		g.For(i, g.I32(0), g.Get(n),
			g.Set(acc, g.Add(g.Get(acc), g.Mul(a.Load(g.Get(i)), a.Load(g.Get(i))))),
		),
		g.Return(g.Get(acc)),
	)
	mb.Export("dot", f)
	return mb
}

func TestWhileBreakContinue(t *testing.T) {
	mb := countModule()
	inst := instantiate(t, compile(t, mb))
	// odds in 1..24 = 12
	if got := call1(t, inst, "count", 1000); got != 12 {
		t.Errorf("count = %d, want 12", got)
	}
	if got := call1(t, inst, "count", 10); got != 5 {
		t.Errorf("count(10) = %d, want 5", got)
	}
}

func countModule() *g.ModuleBuilder {
	// Count odd numbers below n, stopping at the first multiple of 25.
	mb := g.NewModule()
	f := mb.Func("count", wasm.I32)
	n := f.ParamI32("n")
	i := f.LocalI32("i")
	cnt := f.LocalI32("cnt")
	f.Body(
		g.While(g.Lt(g.Get(i), g.Get(n)),
			g.Set(i, g.Add(g.Get(i), g.I32(1))),
			If(g.And(g.Eq(g.Rem(g.Get(i), g.I32(25)), g.I32(0)), g.Gt(g.Get(i), g.I32(0))),
				g.Break(),
			),
			If(g.Eq(g.Rem(g.Get(i), g.I32(2)), g.I32(0)),
				g.Continue(),
			),
			g.Set(cnt, g.Add(g.Get(cnt), g.I32(1))),
		),
		g.Return(g.Get(cnt)),
	)
	mb.Export("count", f)
	return mb
}

func TestForDown(t *testing.T) {
	mb := sumdownModule()
	inst := instantiate(t, compile(t, mb))
	// 5,4,3 → 543
	if got := call1(t, inst, "sumdown", 5, 3); got != 543 {
		t.Errorf("sumdown(5,3) = %d, want 543", got)
	}
	// from < downTo: zero iterations.
	if got := call1(t, inst, "sumdown", 2, 9); got != 0 {
		t.Errorf("sumdown(2,9) = %d, want 0", got)
	}
	// Single iteration when equal.
	if got := call1(t, inst, "sumdown", 7, 7); got != 7 {
		t.Errorf("sumdown(7,7) = %d, want 7", got)
	}
}

func sumdownModule() *g.ModuleBuilder {
	// Collect digits of n in most-significant-last order by counting
	// down, verifying the descending loop includes both endpoints.
	mb := g.NewModule()
	f := mb.Func("sumdown", wasm.I32)
	from := f.ParamI32("from")
	downTo := f.ParamI32("downTo")
	i := f.LocalI32("i")
	acc := f.LocalI32("acc")
	f.Body(
		g.ForDown(i, g.Get(from), g.Get(downTo),
			g.Set(acc, g.Add(g.Mul(g.Get(acc), g.I32(10)), g.Get(i))),
		),
		g.Return(g.Get(acc)),
	)
	mb.Export("sumdown", f)
	return mb
}

func TestGlobalsAndSelect(t *testing.T) {
	mb := maxgModule()
	inst := instantiate(t, compile(t, mb))
	if got := call1(t, inst, "maxg", 3); got != 7 {
		t.Errorf("maxg(3) = %d", got)
	}
	if got := call1(t, inst, "maxg", 11); got != 11 {
		t.Errorf("maxg(11) = %d", got)
	}
	if got := call1(t, inst, "maxg", 5); got != 11 {
		t.Errorf("maxg(5) after 11 = %d", got)
	}
}

func maxgModule() *g.ModuleBuilder {
	mb := g.NewModule()
	gv := mb.GlobalI32(7)
	f := mb.Func("maxg", wasm.I32)
	x := f.ParamI32("x")
	f.Body(
		g.SetG(gv, g.Sel(g.Gt(g.Get(x), g.GetG(gv)), g.Get(x), g.GetG(gv))),
		g.Return(g.GetG(gv)),
	)
	mb.Export("maxg", f)
	return mb
}

func TestCallIndirect(t *testing.T) {
	mb := dispatchModule()
	inst := instantiate(t, compile(t, mb))
	if got := call1(t, inst, "dispatch", 0, 30, 12); got != 42 {
		t.Errorf("dispatch add = %d", got)
	}
	if got := call1(t, inst, "dispatch", 1, 30, 12); got != 18 {
		t.Errorf("dispatch sub = %d", got)
	}
	// Out-of-table dispatch traps.
	if _, err := inst.Invoke("dispatch", 9, 1, 1); err == nil {
		t.Error("expected table trap")
	}
}

func dispatchModule() *g.ModuleBuilder {
	mb := g.NewModule()
	add := mb.Func("add", wasm.I32)
	a1, b1 := add.ParamI32("a"), add.ParamI32("b")
	add.Body(g.Return(g.Add(g.Get(a1), g.Get(b1))))
	sub := mb.Func("sub", wasm.I32)
	a2, b2 := sub.ParamI32("a"), sub.ParamI32("b")
	sub.Body(g.Return(g.Sub(g.Get(a2), g.Get(b2))))
	mb.Table(add, sub)

	disp := mb.Func("dispatch", wasm.I32)
	which := disp.ParamI32("which")
	x := disp.ParamI32("x")
	y := disp.ParamI32("y")
	disp.Body(g.Return(g.CallIndirect(add, g.Get(which), g.Get(x), g.Get(y))))
	mb.Export("dispatch", disp)
	return mb
}

func TestMemoryGrowAndSize(t *testing.T) {
	mb := growModule()
	inst := instantiate(t, compile(t, mb))
	if got := call1(t, inst, "grow", 2); got != 3 {
		t.Errorf("after grow(2): size %d, want 3", got)
	}
	if got := call1(t, inst, "grow", 100); got != 3 {
		t.Errorf("failed grow changed size: %d", got)
	}
}

func growModule() *g.ModuleBuilder {
	mb := g.NewModule()
	mb.Memory(1, 4)
	f := mb.Func("grow", wasm.I32)
	pages := f.ParamI32("pages")
	f.Body(
		g.Drop(g.MemGrow(g.Get(pages))),
		g.Return(g.MemSize()),
	)
	mb.Export("grow", f)
	return mb
}

func TestDataSegmentsAndBulkMemory(t *testing.T) {
	mb := bulkModule()
	inst := instantiate(t, compile(t, mb))
	if got := call1(t, inst, "get", 0); got != 'h' {
		t.Errorf("data[0] = %c", rune(got))
	}
	if got := call1(t, inst, "get", 10); got != 'd' {
		t.Errorf("data[10] = %c", rune(got))
	}
	if got := call1(t, inst, "copyout"); got != 'h' {
		t.Errorf("copy = %c", rune(got))
	}
	if got := call1(t, inst, "fill"); got != 0x5a {
		t.Errorf("fill = %#x", got)
	}
}

func bulkModule() *g.ModuleBuilder {
	mb := g.NewModule()
	mb.Memory(1, 2)
	mb.Data(16, []byte("hello world"))
	f := mb.Func("get", wasm.I32)
	idx := f.ParamI32("i")
	f.Body(g.Return(g.LoadU8(g.Get(idx), 16)))
	mb.Export("get", f)

	cpy := mb.Func("copyout", wasm.I32)
	cpy.Body(
		g.MemCopy(g.I32(100), g.I32(16), g.I32(11)),
		g.Return(g.LoadU8(g.I32(100), 0)),
	)
	mb.Export("copyout", cpy)

	fill := mb.Func("fill", wasm.I32)
	fill.Body(
		g.MemFill(g.I32(200), g.I32(0x5a), g.I32(8)),
		g.Return(g.LoadU8(g.I32(207), 0)),
	)
	mb.Export("fill", fill)
	return mb
}

func TestTrapsSurfaceAsErrors(t *testing.T) {
	mb := trapsModule()
	inst := instantiate(t, compile(t, mb))
	if got := call1(t, inst, "div", 84, 2); got != 42 {
		t.Errorf("div = %d", got)
	}
	if _, err := inst.Invoke("div", 1, 0); err == nil {
		t.Error("divide by zero did not error")
	}
	if _, err := inst.Invoke("boom"); err == nil {
		t.Error("unreachable did not error")
	}
	// The instance stays usable after a trap.
	if got := call1(t, inst, "div", 10, 5); got != 2 {
		t.Errorf("div after trap = %d", got)
	}
}

func trapsModule() *g.ModuleBuilder {
	mb := g.NewModule()
	f := mb.Func("div", wasm.I32)
	a := f.ParamI32("a")
	b := f.ParamI32("b")
	f.Body(g.Return(g.Div(g.Get(a), g.Get(b))))
	mb.Export("div", f)

	boom := mb.Func("boom", wasm.I32)
	boom.Body(g.Unreachable(), g.Return(g.I32(0)))
	mb.Export("boom", boom)
	return mb
}

func TestStackOverflowTrap(t *testing.T) {
	mb := infModule()
	inst := instantiate(t, compile(t, mb))
	if _, err := inst.Invoke("inf", 0); err == nil {
		t.Error("infinite recursion did not trap")
	}
}

func infModule() *g.ModuleBuilder {
	mb := g.NewModule()
	f := mb.Func("inf", wasm.I32)
	n := f.ParamI32("n")
	f.Body(g.Return(g.Call(f, g.Add(g.Get(n), g.I32(1)))))
	mb.Export("inf", f)
	return mb
}

func TestHostImport(t *testing.T) {
	cm := compile(t, hostModule())
	inst, err := cm.Instantiate(core.Config{Profile: isa.X86_64()}, hostImports())
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	res, err := inst.Invoke("go", 21)
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != 42 {
		t.Errorf("host call = %d", res[0])
	}
}

func hostModule() *g.ModuleBuilder {
	mb := g.NewModule()
	host := mb.ImportFunc("env", "mul2", []wasm.ValueType{wasm.I32}, []wasm.ValueType{wasm.I32})
	f := mb.Func("go", wasm.I32)
	x := f.ParamI32("x")
	f.Body(g.Return(g.Call(host, g.Get(x))))
	mb.Export("go", f)
	return mb
}

func hostImports() core.Imports {
	return core.Imports{
		"env": {
			"mul2": core.HostFunc{
				Type: wasm.FuncType{Params: []wasm.ValueType{wasm.I32}, Results: []wasm.ValueType{wasm.I32}},
				Fn: func(hc *core.HostContext, args []uint64) (uint64, error) {
					return uint64(uint32(args[0]) * 2), nil
				},
			},
		},
	}
}

func TestCycleCounting(t *testing.T) {
	mb := loopModule()
	m, err := mb.Module()
	if err != nil {
		t.Fatal(err)
	}
	cm, err := interp.NewWasm3().Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := cm.Instantiate(core.Config{Profile: isa.X86_64(), CountCycles: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	if _, err := inst.Invoke("loop", 1000); err != nil {
		t.Fatal(err)
	}
	c := inst.Counts()
	if c == nil {
		t.Fatal("counts disabled")
	}
	if c[isa.ClassDispatch] < 1000 {
		t.Errorf("dispatch count %d, want >= 1000", c[isa.ClassDispatch])
	}
	if c[isa.ClassBranch] < 1000 {
		t.Errorf("branch count %d, want >= 1000", c[isa.ClassBranch])
	}
	if isa.X86_64().Cycles(c) <= 0 {
		t.Error("cycle total should be positive")
	}
}

func loopModule() *g.ModuleBuilder {
	mb := g.NewModule()
	f := mb.Func("loop", wasm.I32)
	n := f.ParamI32("n")
	i := f.LocalI32("i")
	f.Body(
		g.For(i, g.I32(0), g.Get(n), g.Seq()),
		g.Return(g.Get(i)),
	)
	mb.Export("loop", f)
	return mb
}

func TestWasm3ForcesTrapStrategy(t *testing.T) {
	mb := peekModule()
	cm := compile(t, mb)
	inst, err := cm.Instantiate(core.Config{Profile: isa.X86_64(), Strategy: mem.None}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	// Even with strategy none requested, wasm3 traps out-of-bounds.
	if _, err := inst.Invoke("peek", 1<<20); err == nil {
		t.Error("wasm3 should trap OOB regardless of configured strategy")
	}
}

func peekModule() *g.ModuleBuilder {
	mb := g.NewModule()
	mb.Memory(1, 2)
	f := mb.Func("peek", wasm.I32)
	a := f.ParamI32("a")
	f.Body(g.Return(g.LoadI32(g.Get(a), 0)))
	mb.Export("peek", f)
	return mb
}

func TestAllStrategiesExecuteIdentically(t *testing.T) {
	m, err := churnModule().Module()
	if err != nil {
		t.Fatal(err)
	}
	configurable := difftest.Engine{Name: "interp", New: func(testing.TB) core.Engine { return interp.NewConfigurable() }}
	calls := []difftest.Call{{Export: "churn", Args: []uint64{4000}}}
	o := difftest.Check(t, difftest.Row{Module: m, Calls: calls, Engines: []difftest.Engine{configurable}, Rule: difftest.Same})[mem.Trap]
	if o.Trapped || o.Digest == 0 {
		t.Errorf("suspicious outcome %+v", o)
	}
}

func churnModule() *g.ModuleBuilder {
	mb := g.NewModule()
	mb.Memory(1, 8)
	lay := g.NewLayout(0)
	arr := lay.I64(4096)
	f := mb.Func("churn", wasm.I64)
	n := f.ParamI32("n")
	i := f.LocalI32("i")
	acc := f.LocalI64("acc")
	f.Body(
		g.Drop(g.MemGrow(g.I32(2))),
		g.For(i, g.I32(0), g.Get(n),
			arr.Store(g.Get(i), g.Mul(g.I64FromI32(g.Get(i)), g.I64(2654435761))),
		),
		g.For(i, g.I32(0), g.Get(n),
			g.Set(acc, g.Xor(g.Get(acc), arr.Load(g.Get(i)))),
		),
		g.Return(g.Get(acc)),
	)
	mb.Export("churn", f)
	return mb
}
