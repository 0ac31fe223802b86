// Root-package benchmarks: wavm with elision on and off on two kernels
// (make bench-hot runs it; it also asserts equal results across the
// two) and the cost of the observability plumbing. The
// paper's figures come from cmd/leapsbench, published numbers from
// benchmark/run.sh.
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

// benchCodegenKernel measures the bounds-check elision pass on one
// kernel under the trap strategy (the paper's expensive software
// check): wavm with elision off and on. The engine is detached from
// the module cache so each variant pays — and demonstrates — its own
// compile, and both results must agree, so the benchmark doubles as an
// equivalence check.
func benchCodegenKernel(b *testing.B, workload string) {
	wl, err := leaps.WorkloadByName(workload)
	if err != nil {
		b.Fatal(err)
	}
	module, _ := wl.Build(leaps.SizeTest)
	variants := []struct {
		name  string
		elide bool
	}{
		{"elide=off", false},
		{"elide=on", true},
	}
	sums := make([][]uint64, len(variants))
	for i, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			eng := compiled.NewWAVM()
			eng.SetCache(nil)
			if err := eng.SetElision(v.elide); err != nil {
				b.Fatal(err)
			}
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
// hot-path benches of the elision pass: elide on/off under trap,
// failing if elision changes the result. The benchmark's
// steady workload times the same kernels end to end.
func BenchmarkGemmCompiled(b *testing.B) { benchCodegenKernel(b, "gemm") }
func BenchmarkAtaxCompiled(b *testing.B) { benchCodegenKernel(b, "atax") }

// BenchmarkObsOverhead compares a gemm isolate-churn run with the
// observability plumbing disabled (a traceless private registry,
// counters only) against fully enabled (a registry with the default
// trace ring and tracing on, every layer recording its spans and
// summing their time). The acceptance bar is <5% overhead for
// "enabled" over "disabled".
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
		reg := leaps.NewMetrics()
		reg.EnableTracing(true)
		as := vmm.NewObserved(profile.VM, reg.Scope("proc0"))
		run(b, leaps.Config{Strategy: leaps.Mprotect, Profile: profile, AS: as})
	})
}
