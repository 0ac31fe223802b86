package compiled

import (
	"testing"

	"leapsandbounds/internal/core"
	"leapsandbounds/internal/isa"
	"leapsandbounds/internal/mem"
	"leapsandbounds/internal/workloads"
)

// BenchmarkSteadyKernels is the layer bench of the wavm run loop: the
// benchmark's five steady kernels at class Bench under trap, one
// isolate per op as the benchmark runs them, recompiled for every op
// because closure and heap placement moves run time by tens of percent
// from one compile to the next (benchmark/README.md). Only the invoke
// is timed. dispatches/op is exact (one counted run); ns/dispatch is
// what a closure costs on this host, and ns/op is their product.
func BenchmarkSteadyKernels(b *testing.B) {
	for _, name := range steadyKernels {
		b.Run(name, func(b *testing.B) {
			wl, err := workloads.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			module, native := wl.Build(workloads.Bench)
			want := native()
			cfg := core.Config{Profile: isa.X86_64(), Strategy: mem.Trap}
			compile := func() *Module {
				eng := NewWAVM()
				eng.SetCache(nil)
				cm, err := eng.CompileModule(module)
				if err != nil {
					b.Fatal(err)
				}
				return cm
			}
			invoke := func(cm *Module, cfg core.Config) *Instance {
				inst, err := cm.instantiate(cfg, nil, nil)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				res, err := inst.Invoke("run")
				b.StopTimer()
				if err != nil || res[0] != want {
					b.Fatalf("run() = %v, %v; native twin %#x", res, err, want)
				}
				inst.Close()
				return inst
			}
			counted := cfg
			counted.CountCycles = true
			dispatches := invoke(compile(), counted).dispatches
			b.ResetTimer()
			b.StopTimer()
			for i := 0; i < b.N; i++ {
				invoke(compile(), cfg)
			}
			b.ReportMetric(float64(dispatches), "dispatches/op")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(dispatches), "ns/dispatch")
		})
	}
}
