package compiled_test

import (
	"testing"

	"leapsandbounds/internal/compiled"
	"leapsandbounds/internal/core"
	"leapsandbounds/internal/isa"
	"leapsandbounds/internal/mem"
	"leapsandbounds/internal/wasm"
	g "leapsandbounds/internal/wasmgen"
	"leapsandbounds/internal/workloads"
)

// The tests in this file pin that each elision mechanism actually
// fires on the IR shape it was built for, via deltas of the process-
// wide compiled.Stats() counters. Concurrent compiles from parallel
// tests can only inflate the deltas, so the >0 assertions stay sound
// without test isolation.

// runAllStrategies executes run() under every strategy and requires
// one agreed result (the kernels here make no OOB access).
func runAllStrategies(t *testing.T, cm core.CompiledModule) uint64 {
	t.Helper()
	var want uint64
	for i, s := range mem.Strategies() {
		inst, err := cm.Instantiate(core.Config{Profile: isa.X86_64(), Strategy: s}, nil)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		res, err := inst.Invoke("run")
		inst.Close()
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if i == 0 {
			want = res[0]
		} else if res[0] != want {
			t.Errorf("%v: result %#x, want %#x", s, res[0], want)
		}
	}
	return want
}

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
	cm, err := eng.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	after := compiled.Stats()
	if after.Hoisted == before.Hoisted {
		t.Errorf("no hoisted checks on a gemm-shaped kernel")
	}
	if after.ChecksElided == before.ChecksElided {
		t.Errorf("no elided accesses on a gemm-shaped kernel")
	}
	runAllStrategies(t, cm)
}

// TestCoalesceEBBChecks compiles straight-line same-base traffic
// (two loads + two stores within one extended basic block) and
// requires the group to collapse onto one range check.
func TestCoalesceEBBChecks(t *testing.T) {
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
	m, err := mb.Module()
	if err != nil {
		t.Fatal(err)
	}
	before := compiled.Stats()
	eng := compiled.NewWAVM()
	eng.SetCache(nil)
	cm, err := eng.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	after := compiled.Stats()
	if after.RangesCoalesced == before.RangesCoalesced {
		t.Errorf("no coalesced ranges on straight-line same-base traffic")
	}
	runAllStrategies(t, cm)
}

// TestGemmElisionStats compiles the real gemm workload and requires
// the full pipeline to engage on it: checks elided, and address-mode
// chains fused into the unchecked accesses (the closure-level analog
// of folding the scale/index/base arithmetic into the memory
// operand). It then runs the kernel under the trap strategy, the one
// BenchmarkGemmCompiled's elide × rir matrix runs under.
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
	t.Logf("gemm delta: emitted=%d elided=%d coalesced=%d hoisted=%d fused=%d",
		after.ChecksEmitted-before.ChecksEmitted,
		after.ChecksElided-before.ChecksElided,
		after.RangesCoalesced-before.RangesCoalesced,
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
