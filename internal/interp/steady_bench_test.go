package interp_test

import (
	"testing"

	"leapsandbounds/internal/core"
	"leapsandbounds/internal/interp"
	"leapsandbounds/internal/isa"
	"leapsandbounds/internal/mem"
	"leapsandbounds/internal/workloads"
)

// BenchmarkSteadyInterp is the layer bench of the interpreter's run
// loop: the benchmark's five steady kernels at class Bench under wasm3
// (trap), one isolate per op as the benchmark runs them. Only the
// invoke is timed. guest-ops/op is exact (the dispatch count of one
// counted run); ns/guest-op is what one interpreted instruction costs
// on this host, and ns/op is their product.
func BenchmarkSteadyInterp(b *testing.B) {
	for _, name := range []string{"gemm", "atax", "505.mcf", "557.xz", "531.deepsjeng"} {
		b.Run(name, func(b *testing.B) {
			wl, err := workloads.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			module, native := wl.Build(workloads.Bench)
			want := native()
			eng := interp.NewWasm3()
			eng.SetCache(nil)
			cm, err := eng.Compile(module)
			if err != nil {
				b.Fatal(err)
			}
			cfg := core.Config{Profile: isa.X86_64(), Strategy: mem.Trap}
			invoke := func(cfg core.Config) core.Instance {
				inst, err := cm.Instantiate(cfg, nil)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				res, err := inst.Invoke(workloads.Entry)
				b.StopTimer()
				if err != nil || res[0] != want {
					b.Fatalf("run() = %v, %v; native twin %#x", res, err, want)
				}
				inst.Close()
				return inst
			}
			counted := cfg
			counted.CountCycles = true
			guestOps := invoke(counted).Counts()[isa.ClassDispatch]
			b.ResetTimer()
			b.StopTimer()
			for i := 0; i < b.N; i++ {
				invoke(cfg)
			}
			b.ReportMetric(float64(guestOps), "guest-ops/op")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(guestOps), "ns/guest-op")
		})
	}
}
