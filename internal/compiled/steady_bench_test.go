package compiled

import (
	"testing"

	"leapsandbounds/internal/core"
	"leapsandbounds/internal/isa"
	"leapsandbounds/internal/mem"
	"leapsandbounds/internal/workloads"
)

// steadyRunner builds kernel at class Bench and returns a function
// that compiles it afresh on mk's engine (cache-detached), runs it once
// under strategy s, with cycle counting or without, checks the result
// against the native twin and returns the closed instance. Under a
// benchmark only the invoke is timed.
func steadyRunner(tb testing.TB, mk func() *Engine, s mem.Strategy, kernel string) func(countCycles bool) *Instance {
	tb.Helper()
	wl, err := workloads.ByName(kernel)
	if err != nil {
		tb.Fatal(err)
	}
	module, native := wl.Build(workloads.Bench)
	want := native()
	b, timed := tb.(*testing.B)
	return func(countCycles bool) *Instance {
		eng := mk()
		eng.SetCache(nil)
		cm, err := eng.CompileModule(module)
		if err != nil {
			tb.Fatal(err)
		}
		cfg := core.Config{Profile: isa.X86_64(), Strategy: s, CountCycles: countCycles}
		inst, err := cm.instantiate(cfg, nil, nil)
		if err != nil {
			tb.Fatal(err)
		}
		if timed {
			b.StartTimer()
		}
		res, err := inst.Invoke("run")
		if timed {
			b.StopTimer()
		}
		if err != nil || res[0] != want {
			tb.Fatalf("%s on %s under %v: run() = %v, %v; native twin %#x", kernel, eng.name, s, res, err, want)
		}
		inst.Close()
		return inst
	}
}

// BenchmarkSteadyKernels is the layer bench of the compiled engines'
// run loop: the benchmark's five steady kernels at class Bench, on wavm
// and on wasmtime, under trap, clamp and mprotect, one isolate per op as
// the benchmark runs them, recompiled for every op because code and
// heap placement moves run time by tens of percent from one compile to
// the next (benchmark/README.md). Only the invoke is timed. Every
// strategy runs the same code; clamp's elision guard always fails, so
// on wavm it runs the checked copy of every versioned loop, and
// mprotect commits its pages through the fault path as the run first
// touches them. dispatches/op is exact (one counted run); ns/dispatch
// is what one op of the run loop costs on this host, and ns/op is
// their product.
func BenchmarkSteadyKernels(b *testing.B) {
	for _, e := range []struct {
		name string
		mk   func() *Engine
	}{{"wavm", NewWAVM}, {"wasmtime", NewWasmtime}} {
		for _, s := range []mem.Strategy{mem.Trap, mem.Clamp, mem.Mprotect} {
			for _, kernel := range steadyKernels {
				b.Run(e.name+"/"+s.String()+"/"+kernel, func(b *testing.B) {
					run := steadyRunner(b, e.mk, s, kernel)
					dispatches := run(true).dispatches
					b.ResetTimer()
					b.StopTimer()
					for i := 0; i < b.N; i++ {
						run(false)
					}
					b.ReportMetric(float64(dispatches), "dispatches/op")
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(dispatches), "ns/dispatch")
				})
			}
		}
	}
}
