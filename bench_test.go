// Benchmarks regenerating the paper's tables and figures through
// testing.B. Each BenchmarkFigN corresponds to one figure of the
// evaluation (see DESIGN.md §5 and EXPERIMENTS.md); cmd/leapsbench
// produces the full-size tables, these benches give the same series
// in -bench form with vm statistics attached as custom metrics.
package leaps_test

import (
	"fmt"
	"testing"

	leaps "leapsandbounds"
	"leapsandbounds/internal/compiled"
	"leapsandbounds/internal/core"
	"leapsandbounds/internal/isa"
	"leapsandbounds/internal/mem"
	"leapsandbounds/internal/vmm"
)

// benchWorkloads is the representative subset used by the benches
// (the full set runs via cmd/leapsbench).
var benchWorkloads = []string{"gemm", "atax", "cholesky", "jacobi-2d", "505.mcf", "557.xz"}

// runIsolates executes instance-per-iteration (the paper's isolate
// churn) on a shared simulated process and reports vm metrics.
func runIsolates(b *testing.B, engine string, strategy leaps.Strategy, workload string, profile *leaps.Profile) {
	b.Helper()
	wl, err := leaps.WorkloadByName(workload)
	if err != nil {
		b.Fatal(err)
	}
	module, _ := wl.Build(leaps.SizeTest)
	eng, closeEng, err := leaps.NewEngine(engine)
	if err != nil {
		b.Fatal(err)
	}
	defer closeEng()
	cm, err := eng.Compile(module)
	if err != nil {
		b.Fatal(err)
	}
	proc := leaps.NewProcess(profile)
	defer proc.Close()
	cfg := proc.Config(strategy)

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst, err := cm.Instantiate(cfg, nil)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := inst.Invoke("run"); err != nil {
			b.Fatal(err)
		}
		inst.Close()
	}
	b.StopTimer()
	vm := proc.VMStats()
	if n := int64(b.N); n > 0 {
		b.ReportMetric(float64(vm.MprotectCalls)/float64(n), "mprotect/op")
		b.ReportMetric(float64(vm.UffdFaults)/float64(n), "uffdfaults/op")
		b.ReportMetric(float64(vm.LockWaitNs)/float64(n), "lockwait-ns/op")
	}
}

// BenchmarkFig1_BoundsCheckCost regenerates Figure 1's axis: the
// default (mprotect) strategy against no checks, per benchmark, on
// the V8 analog.
func BenchmarkFig1_BoundsCheckCost(b *testing.B) {
	for _, wl := range benchWorkloads {
		for _, s := range []leaps.Strategy{leaps.None, leaps.Mprotect} {
			b.Run(fmt.Sprintf("%s/%v", wl, s), func(b *testing.B) {
				runIsolates(b, leaps.EngineV8, s, wl, leaps.ProfileX86())
			})
		}
	}
}

// BenchmarkFig2_EngineStrategyMatrix regenerates Figure 2's matrix
// on a representative kernel: every engine × strategy, plus the
// native baseline.
func BenchmarkFig2_EngineStrategyMatrix(b *testing.B) {
	b.Run("native", func(b *testing.B) {
		wl, err := leaps.WorkloadByName("gemm")
		if err != nil {
			b.Fatal(err)
		}
		_, native := wl.Build(leaps.SizeTest)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			native()
		}
	})
	for _, engine := range []string{leaps.EngineWAVM, leaps.EngineWasmtime, leaps.EngineV8} {
		for _, s := range leaps.Strategies() {
			b.Run(fmt.Sprintf("%s/%v", engine, s), func(b *testing.B) {
				runIsolates(b, engine, s, "gemm", leaps.ProfileX86())
			})
		}
	}
	b.Run("wasm3/trap", func(b *testing.B) {
		runIsolates(b, leaps.EngineWasm3, leaps.Trap, "gemm", leaps.ProfileX86())
	})
}

// BenchmarkFig2_ISAs regenerates Figure 2's ISA axis: the same
// engine × strategy on each hardware profile (the VM-subsystem
// parameters differ; the cycle model is exercised by the harness).
func BenchmarkFig2_ISAs(b *testing.B) {
	for _, prof := range leaps.Profiles() {
		for _, s := range []leaps.Strategy{leaps.None, leaps.Trap, leaps.Mprotect, leaps.Uffd} {
			b.Run(fmt.Sprintf("%s/%v", prof.Name, s), func(b *testing.B) {
				runIsolates(b, leaps.EngineWAVM, s, "atax", prof)
			})
		}
	}
}

// BenchmarkFig3_Scaling regenerates Figure 3's thread axis: parallel
// isolate churn under mprotect vs uffd.
func BenchmarkFig3_Scaling(b *testing.B) {
	wl, err := leaps.WorkloadByName("jacobi-1d")
	if err != nil {
		b.Fatal(err)
	}
	module, _ := wl.Build(leaps.SizeTest)
	for _, threads := range []int{1, 4} {
		for _, s := range []leaps.Strategy{leaps.Mprotect, leaps.Uffd} {
			b.Run(fmt.Sprintf("threads=%d/%v", threads, s), func(b *testing.B) {
				eng, closeEng, err := leaps.NewEngine(leaps.EngineWasmtime)
				if err != nil {
					b.Fatal(err)
				}
				defer closeEng()
				cm, err := eng.Compile(module)
				if err != nil {
					b.Fatal(err)
				}
				proc := leaps.NewProcess(leaps.ProfileX86())
				defer proc.Close()
				cfg := proc.Config(s)
				b.SetParallelism(threads)
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					for pb.Next() {
						inst, err := cm.Instantiate(cfg, nil)
						if err != nil {
							b.Error(err)
							return
						}
						if _, err := inst.Invoke("run"); err != nil {
							b.Error(err)
							return
						}
						inst.Close()
					}
				})
				b.StopTimer()
				vm := proc.VMStats()
				b.ReportMetric(float64(vm.LockWaitNs)/float64(b.N), "lockwait-ns/op")
				b.ReportMetric(float64(vm.LockContended)/float64(b.N), "contended/op")
			})
		}
	}
}

// BenchmarkFig6_MemoryTHP regenerates Figure 6's mechanism: resident
// memory under x86-style (1 GiB) vs Arm-style (2 MiB) transparent
// huge pages, reported as a metric.
func BenchmarkFig6_MemoryTHP(b *testing.B) {
	for _, prof := range leaps.Profiles()[:2] {
		b.Run(prof.Name, func(b *testing.B) {
			wl, err := leaps.WorkloadByName("gemm")
			if err != nil {
				b.Fatal(err)
			}
			module, _ := wl.Build(leaps.SizeTest)
			eng, closeEng, err := leaps.NewEngine(leaps.EngineWasmtime)
			if err != nil {
				b.Fatal(err)
			}
			defer closeEng()
			cm, err := eng.Compile(module)
			if err != nil {
				b.Fatal(err)
			}
			proc := leaps.NewProcess(prof)
			defer proc.Close()
			cfg := proc.Config(leaps.Mprotect)
			var peak int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				inst, err := cm.Instantiate(cfg, nil)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := inst.Invoke("run"); err != nil {
					b.Fatal(err)
				}
				if r := proc.VMStats().ResidentBytes; r > peak {
					peak = r
				}
				inst.Close()
			}
			b.StopTimer()
			b.ReportMetric(float64(peak)/(1<<20), "resident-MiB")
		})
	}
}

// BenchmarkReplication_InterpreterGap regenerates the §4.4 Titzer
// comparison: the interpreter against the tiered JIT on PolyBench.
func BenchmarkReplication_InterpreterGap(b *testing.B) {
	for _, engine := range []string{leaps.EngineWasm3, leaps.EngineV8} {
		b.Run(engine, func(b *testing.B) {
			runIsolates(b, engine, leaps.Trap, "gemm", leaps.ProfileX86())
		})
	}
}

// BenchmarkUffdArenaPool measures the uffd mitigation in isolation:
// isolate churn with pooled arenas vs fresh mmaps.
func BenchmarkUffdArenaPool(b *testing.B) {
	for _, s := range []leaps.Strategy{leaps.Mprotect, leaps.Uffd} {
		b.Run(s.String(), func(b *testing.B) {
			runIsolates(b, leaps.EngineWasmtime, s, "atax", leaps.ProfileX86())
		})
	}
}

// benchCodegenKernel measures the optimizing engine's codegen passes
// on one kernel under the trap strategy (the paper's expensive
// software check): baseline, elision alone, and elision plus the
// register-IR recompile tier. The engine is detached from the module
// cache so each variant pays — and demonstrates — its own compile,
// and every variant's result must agree with the baseline, so the
// benchmark doubles as an equivalence check.
func benchCodegenKernel(b *testing.B, workload string) {
	wl, err := leaps.WorkloadByName(workload)
	if err != nil {
		b.Fatal(err)
	}
	module, _ := wl.Build(leaps.SizeTest)
	variants := []struct {
		name string
		cg   core.Codegen
	}{
		{"elide=off/rir=off", core.Codegen{}},
		{"elide=on/rir=off", core.Codegen{BoundsElision: true}},
		{"elide=off/rir=on", core.Codegen{RegisterIR: true}},
		{"elide=on/rir=on", core.Codegen{BoundsElision: true, RegisterIR: true}},
	}
	sums := make([][]uint64, len(variants))
	for i, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			eng := compiled.NewWAVM()
			eng.SetCache(nil)
			eng.SetCodegen(v.cg)
			cm, err := eng.CompileModule(module)
			if err != nil {
				b.Fatal(err)
			}
			inst, err := cm.Instantiate(core.Config{Profile: isa.X86_64(), Strategy: mem.Trap}, nil)
			if err != nil {
				b.Fatal(err)
			}
			defer inst.Close()
			b.ResetTimer()
			for j := 0; j < b.N; j++ {
				res, err := inst.Invoke("run")
				if err != nil {
					b.Fatal(err)
				}
				sums[i] = res
			}
		})
	}
	for i := 1; i < len(variants); i++ {
		if sums[0] != nil && sums[i] != nil && fmt.Sprint(sums[0]) != fmt.Sprint(sums[i]) {
			b.Fatalf("%s changed the result: baseline=%v got=%v",
				variants[i].name, sums[0], sums[i])
		}
	}
}

// BenchmarkGemmCompiled and BenchmarkAtaxCompiled are the headline
// hot-path benches of the codegen passes: the elide × rir matrix under
// trap, failing if any variant changes the result. The benchmark's
// steady workload times the same kernels end to end.
func BenchmarkGemmCompiled(b *testing.B) { benchCodegenKernel(b, "gemm") }
func BenchmarkAtaxCompiled(b *testing.B) { benchCodegenKernel(b, "atax") }

// BenchmarkObsOverhead compares a gemm isolate-churn run with the
// observability plumbing disabled (a traceless private registry,
// counters only) against fully enabled (a registry with the default
// trace ring, every layer emitting events). The acceptance bar is <5%
// overhead for "enabled" over "disabled".
func BenchmarkObsOverhead(b *testing.B) {
	run := func(b *testing.B, cfg leaps.Config) {
		b.Helper()
		wl, err := leaps.WorkloadByName("gemm")
		if err != nil {
			b.Fatal(err)
		}
		module, _ := wl.Build(leaps.SizeTest)
		eng, closeEng, err := leaps.NewEngine(leaps.EngineWasmtime)
		if err != nil {
			b.Fatal(err)
		}
		defer closeEng()
		cm, err := eng.Compile(module)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			inst, err := cm.Instantiate(cfg, nil)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := inst.Invoke("run"); err != nil {
				b.Fatal(err)
			}
			inst.Close()
		}
	}
	profile := leaps.ProfileX86()
	b.Run("disabled", func(b *testing.B) {
		run(b, leaps.Config{Strategy: leaps.Mprotect, Profile: profile, AS: vmm.New(profile.VM)})
	})
	b.Run("enabled", func(b *testing.B) {
		as := vmm.NewObserved(profile.VM, leaps.NewMetrics().Scope("proc0"))
		run(b, leaps.Config{Strategy: leaps.Mprotect, Profile: profile, AS: as})
	})
}
