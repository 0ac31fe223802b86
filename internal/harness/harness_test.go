package harness_test

import (
	"errors"
	"runtime"
	"strings"
	"testing"

	"leapsandbounds/internal/harness"
	"leapsandbounds/internal/isa"
	"leapsandbounds/internal/mem"
	"leapsandbounds/internal/obs"
	"leapsandbounds/internal/trap"
	"leapsandbounds/internal/wasm"
	g "leapsandbounds/internal/wasmgen"
	"leapsandbounds/internal/workloads"
)

func spec(t *testing.T, name string) workloads.Spec {
	t.Helper()
	s, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRunAllEnginesAgree(t *testing.T) {
	wl := spec(t, "gemm")
	var want uint64
	for i, eng := range harness.EngineNames() {
		res, err := harness.Run(harness.Options{
			Engine:   eng,
			Workload: wl,
			Class:    workloads.Test,
			Strategy: mem.Mprotect,
			Profile:  isa.X86_64(),
			Warmup:   1,
			Measure:  2,
		})
		if err != nil {
			t.Fatalf("%s: %v", eng, err)
		}
		if len(res.Times) != 2 {
			t.Errorf("%s: %d samples, want 2", eng, len(res.Times))
		}
		if res.MedianWall <= 0 {
			t.Errorf("%s: non-positive median", eng)
		}
		if i == 0 {
			want = res.Checksum
		} else if res.Checksum != want {
			t.Errorf("%s: checksum %#x, want %#x", eng, res.Checksum, want)
		}
	}
}

func TestRunMultithreaded(t *testing.T) {
	wl := spec(t, "jacobi-1d")
	for _, s := range []mem.Strategy{mem.Mprotect, mem.Uffd} {
		res, err := harness.Run(harness.Options{
			Engine:   harness.EngineWAVM,
			Workload: wl,
			Class:    workloads.Test,
			Strategy: s,
			Profile:  isa.X86_64(),
			Threads:  4,
			Warmup:   1,
			Measure:  3,
		})
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if len(res.Times) != 12 {
			t.Errorf("%v: %d samples, want 12", s, len(res.Times))
		}
		if res.Throughput <= 0 {
			t.Errorf("%v: zero throughput", s)
		}
	}
}

func TestRunStrategiesDifferInVMTraffic(t *testing.T) {
	wl := spec(t, "atax")
	run := func(s mem.Strategy) *harness.Result {
		res, err := harness.Run(harness.Options{
			Engine:   harness.EngineWasmtime,
			Workload: wl,
			Class:    workloads.Test,
			Strategy: s,
			Profile:  isa.X86_64(),
			Warmup:   1,
			Measure:  4,
		})
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		return res
	}
	mp := run(mem.Mprotect)
	uf := run(mem.Uffd)
	if mp.VM.MprotectCalls == 0 {
		t.Error("mprotect strategy performed no mprotect calls")
	}
	if uf.VM.UffdFaults == 0 {
		t.Error("uffd strategy resolved no faults")
	}
	if uf.VM.MprotectCalls != 0 {
		t.Errorf("uffd strategy called mprotect %d times", uf.VM.MprotectCalls)
	}
	// Arena pooling: uffd performs far fewer mmaps than instance count.
	if uf.VM.MmapCalls >= mp.VM.MmapCalls {
		t.Errorf("uffd mmaps (%d) should be below mprotect mmaps (%d)",
			uf.VM.MmapCalls, mp.VM.MmapCalls)
	}
}

func TestRunCycleModel(t *testing.T) {
	wl := spec(t, "gemm")
	for _, p := range isa.Profiles() {
		res, err := harness.Run(harness.Options{
			Engine:      harness.EngineWAVM,
			Workload:    wl,
			Class:       workloads.Test,
			Strategy:    mem.None,
			Profile:     p,
			Warmup:      1,
			Measure:     2,
			CountCycles: true,
		})
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if res.MedianSimTime <= 0 {
			t.Errorf("%s: no simulated time", p.Name)
		}
	}
	// The in-order 1 GHz RISC-V core must be slower than the Xeon in
	// simulated time for the same workload.
	x86, _ := harness.Run(harness.Options{Engine: harness.EngineWAVM, Workload: wl,
		Class: workloads.Test, Strategy: mem.None, Profile: isa.X86_64(),
		Warmup: 1, Measure: 2, CountCycles: true})
	rv, _ := harness.Run(harness.Options{Engine: harness.EngineWAVM, Workload: wl,
		Class: workloads.Test, Strategy: mem.None, Profile: isa.ByName("riscv64"),
		Warmup: 1, Measure: 2, CountCycles: true})
	if rv.MedianSimTime <= x86.MedianSimTime {
		t.Errorf("riscv sim time %v should exceed x86 %v", rv.MedianSimTime, x86.MedianSimTime)
	}
}

func TestRunMultiprocess(t *testing.T) {
	// Splitting workers across processes must eliminate shared-lock
	// contention (the paper's §4.2.1 alternative mitigation) while
	// producing identical results. The comparison needs the workers
	// actually running in parallel: without it the scheduler
	// serializes the single-process run so cleanly that its lock
	// wait is indistinguishable from the multiprocess run's noise
	// floor (both a few tens of µs of bare acquisition overhead).
	if runtime.NumCPU() < 4 {
		t.Skipf("needs >=4 CPUs for lock contention, have %d", runtime.NumCPU())
	}
	wl := spec(t, "atax")
	run := func(procs int) *harness.Result {
		res, err := harness.Run(harness.Options{
			Engine:    harness.EngineWasmtime,
			Workload:  wl,
			Class:     workloads.Test,
			Strategy:  mem.Mprotect,
			Profile:   isa.X86_64(),
			Threads:   4,
			Processes: procs,
			Warmup:    1,
			Measure:   4,
		})
		if err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		return res
	}
	one := run(1)
	four := run(4)
	if one.Checksum != four.Checksum {
		t.Errorf("checksums differ: %#x vs %#x", one.Checksum, four.Checksum)
	}
	// With one mmap lock per worker, contention should drop hard.
	if one.VM.LockWaitNs > 0 && four.VM.LockWaitNs > one.VM.LockWaitNs/2 {
		t.Errorf("multiprocess lock wait %v not well below single-process %v",
			four.VM.LockWaitNs, one.VM.LockWaitNs)
	}
	// Both modes mmap per isolate (cool-down iterations make the
	// exact count nondeterministic).
	if one.VM.MmapCalls < 16 || four.VM.MmapCalls < 16 {
		t.Errorf("mmap calls too low: %d / %d", one.VM.MmapCalls, four.VM.MmapCalls)
	}
}

func TestRunUnknownEngine(t *testing.T) {
	wl := spec(t, "gemm")
	if _, err := harness.Run(harness.Options{
		Engine: "quickjs", Workload: wl, Profile: isa.X86_64(),
	}); err == nil {
		t.Error("expected error for unknown engine")
	}
}

// TestRunNoElideNeedsTheElisionPass: NoElide is an error on every
// engine but wavm, the only one with an elision pass, instead of a run
// of unchanged code under an elide=off label.
func TestRunNoElideNeedsTheElisionPass(t *testing.T) {
	for _, engine := range []string{harness.EngineWAVM, harness.EngineWasmtime, harness.EngineWasm3, harness.EngineV8, harness.EngineNative} {
		_, err := harness.Run(harness.Options{
			Engine: engine, Workload: spec(t, "atax"), Class: workloads.Test,
			Strategy: mem.Trap, Profile: isa.X86_64(), Warmup: 1, Measure: 1,
			NoElide: true,
		})
		if (err == nil) != (engine == harness.EngineWAVM) {
			t.Errorf("%s: NoElide gave error %v", engine, err)
		}
	}
}

// TestRunLabelTellsConfigurationsApart: two runs that differ only in
// an ablation knob register under two scopes of one registry, so
// neither's gauges overwrite — nor its counters add to — the other's.
func TestRunLabelTellsConfigurationsApart(t *testing.T) {
	reg := obs.NewRegistry()
	opts := harness.Options{
		Engine:   harness.EngineWasmtime,
		Workload: spec(t, "atax"),
		Class:    workloads.Test,
		Strategy: mem.Uffd,
		Profile:  isa.X86_64(),
		Warmup:   1,
		Measure:  2,
		Obs:      reg,
	}
	noPool := opts
	noPool.UffdNoPool = true
	for _, o := range []harness.Options{opts, noPool} {
		if _, err := harness.Run(o); err != nil {
			t.Fatal(err)
		}
	}
	var scopes []string
	for name, n := range reg.Snapshot(false).Counters {
		if strings.HasPrefix(name, "run[") && strings.HasSuffix(name, "]/iterations") {
			scopes = append(scopes, name)
			if n != 2 {
				t.Errorf("%s = %d, want this run's 2 iterations alone", name, n)
			}
		}
	}
	if len(scopes) != 2 {
		t.Errorf("%d run scopes for two configurations, want 2: %v", len(scopes), scopes)
	}
}

// TestRunAbortsOnGuestTrap: any iteration error ends the run. A guest
// whose every call traps makes Run return no result and an error that
// names the worker and the trap kind, under a software check and under
// the fault handler alike.
func TestRunAbortsOnGuestTrap(t *testing.T) {
	oob := workloads.Spec{
		Name:  "oob-load",
		Suite: "test",
		BuildFn: func(workloads.Class) (*wasm.Module, func() uint64) {
			mb := g.NewModule()
			mb.Memory(1, 1)
			fn := mb.Func(workloads.Entry, wasm.I64)
			fn.Body(g.Return(g.LoadI64(g.I32(wasm.PageSize), 0)))
			mb.Export(workloads.Entry, fn)
			m, err := mb.Module()
			if err != nil {
				panic(err)
			}
			return m, func() uint64 { return 0 }
		},
	}
	for _, s := range []mem.Strategy{mem.Trap, mem.Mprotect} {
		res, err := harness.Run(harness.Options{
			Engine:   harness.EngineWAVM,
			Workload: oob,
			Class:    workloads.Test,
			Strategy: s,
			Profile:  isa.X86_64(),
			Threads:  2,
			Warmup:   1,
			Measure:  2,
		})
		if res != nil {
			t.Errorf("%v: a partial result %+v next to error %v", s, res, err)
		}
		var tr *trap.Trap
		if !errors.As(err, &tr) || tr.Kind != trap.OutOfBounds {
			t.Fatalf("%v: error %v, want an out-of-bounds trap", s, err)
		}
		if msg := err.Error(); !strings.Contains(msg, "harness: worker 0: ") || !strings.Contains(msg, trap.OutOfBounds.String()) {
			t.Errorf("%v: error %q does not name the worker and the trap kind", s, msg)
		}
	}
}

// TestRunDrainsPoolsOnError: an aborted uffd run drains its arena
// pools like a finished one. Each pool's poll server is a goroutine
// that a drain joins, so five failed runs that each fault a page in
// before trapping must not raise the goroutine count (one that an
// earlier test left winding down may lower it).
func TestRunDrainsPoolsOnError(t *testing.T) {
	oob := workloads.Spec{
		Name:  "store-then-oob-load",
		Suite: "test",
		BuildFn: func(workloads.Class) (*wasm.Module, func() uint64) {
			mb := g.NewModule()
			mb.Memory(1, 1)
			fn := mb.Func(workloads.Entry, wasm.I64)
			fn.Body(
				g.StoreI64(g.I32(0), 0, g.I64(1)),
				g.Return(g.LoadI64(g.I32(wasm.PageSize), 0)),
			)
			mb.Export(workloads.Entry, fn)
			m, err := mb.Module()
			if err != nil {
				panic(err)
			}
			return m, func() uint64 { return 0 }
		},
	}
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		_, err := harness.Run(harness.Options{
			Engine:   harness.EngineWAVM,
			Workload: oob,
			Class:    workloads.Test,
			Strategy: mem.Uffd,
			UffdPoll: true,
			Profile:  isa.X86_64(),
			Warmup:   1,
			Measure:  1,
		})
		var tr *trap.Trap
		if !errors.As(err, &tr) || tr.Kind != trap.OutOfBounds {
			t.Fatalf("run %d: error %v, want an out-of-bounds trap", i, err)
		}
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines %d before five failed uffd runs, %d after: a pool was not drained", before, after)
	}
}
