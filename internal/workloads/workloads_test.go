package workloads_test

import (
	"math"
	"testing"

	"leapsandbounds/internal/compiled"
	"leapsandbounds/internal/core"
	"leapsandbounds/internal/difftest"
	"leapsandbounds/internal/interp"
	"leapsandbounds/internal/mem"
	"leapsandbounds/internal/workloads"
)

// specImports builds the import set for one instantiation: nil for
// pure-compute workloads, a fresh environment's imports for hostcall
// workloads (the env owns the filesystem the workload mutates, so
// every isolate needs its own).
func specImports(spec workloads.Spec) core.Imports {
	if spec.NewEnv == nil {
		return nil
	}
	return spec.NewEnv(workloads.Test).Imports()
}

// matchesNative runs spec's module on engines through the
// differential harness (every strategy, fresh and forked, counted and
// not, all agreeing) and holds the outcome to its native twin.
func matchesNative(t *testing.T, spec workloads.Spec, engines ...difftest.Engine) {
	t.Parallel()
	m, native := spec.Build(workloads.Test)
	want := native()
	if math.IsNaN(math.Float64frombits(want)) {
		t.Fatalf("native checksum is NaN")
	}
	env := func() difftest.Env { return difftest.Env{Imports: specImports(spec)} }
	o := difftest.Check(t, difftest.Row{Module: m, Env: env, Engines: engines, Rule: difftest.Same})[mem.Trap]
	if o.Trapped || o.Digest != want {
		t.Errorf("%v (%v), native %#x (%v)", o, math.Float64frombits(o.Digest), want, math.Float64frombits(want))
	}
}

var (
	wasm3    = difftest.Engine{Name: "wasm3", New: func(testing.TB) core.Engine { return interp.NewWasm3() }}
	wasmtime = difftest.Engine{Name: "wasmtime", New: func(testing.TB) core.Engine { return compiled.NewWasmtime() }}
	wavm     = difftest.Engine{Name: "wavm", New: func(testing.TB) core.Engine { return compiled.NewWAVM() }}
)

// TestWasmMatchesNative is the central cross-validation: every
// workload's wasm module must produce exactly the checksum its
// native twin computes, on every engine.
func TestWasmMatchesNative(t *testing.T) {
	for _, spec := range workloads.All() {
		t.Run(spec.Name, func(t *testing.T) { matchesNative(t, spec, wasm3, wasmtime, wavm) })
	}
}

// TestStrategiesMatchOnWorkloads runs a subset of workloads across
// every bounds-checking strategy on the optimizing engine.
func TestStrategiesMatchOnWorkloads(t *testing.T) {
	for _, name := range []string{"gemm", "cholesky", "jacobi-2d", "atax", "logscan", "kvstore", "echo"} {
		t.Run(name, func(t *testing.T) {
			spec, err := workloads.ByName(name)
			if err != nil {
				t.Skip(err)
			}
			matchesNative(t, spec, wavm)
		})
	}
}

func TestRegistryIntegrity(t *testing.T) {
	all := workloads.All()
	if len(all) < 20 {
		t.Errorf("only %d workloads registered", len(all))
	}
	seen := map[string]bool{}
	for _, s := range all {
		if seen[s.Name] {
			t.Errorf("duplicate workload %q", s.Name)
		}
		seen[s.Name] = true
		if s.Suite != "polybench" && s.Suite != "spec" && s.Suite != "wasi" && s.Suite != "shared" {
			t.Errorf("%s: unknown suite %q", s.Name, s.Suite)
		}
		if s.Suite == "wasi" && s.NewEnv == nil {
			t.Errorf("%s: wasi workload without NewEnv", s.Name)
		}
	}
	if len(workloads.Suite("polybench")) < 15 {
		t.Errorf("polybench suite too small: %d", len(workloads.Suite("polybench")))
	}
}
