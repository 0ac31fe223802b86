package leaps_test

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	leaps "leapsandbounds"
	"leapsandbounds/gen"
)

// buildHandlerModule authors a small serverless-style function: grow
// one page, fill a working set, digest it.
func buildHandlerModule(t *testing.T) *leaps.Module {
	t.Helper()
	mb := gen.NewModule()
	mb.Memory(1, 4)
	buf := gen.ArrI64(0)

	const workBytes = 32 << 10
	f := mb.Func("handle", gen.I64Type)
	seed := f.ParamI32("seed")
	i := f.LocalI32("i")
	acc := f.LocalI64("acc")
	n := int32(workBytes / 8)
	f.Body(
		gen.Drop(gen.MemGrow(gen.I32(1))),
		gen.For(i, gen.I32(0), gen.I32(n),
			buf.Store(gen.Get(i),
				gen.Mul(gen.I64FromI32(gen.Add(gen.Get(i), gen.Get(seed))),
					gen.I64(-0x61c8864680b583eb))),
		),
		gen.For(i, gen.I32(0), gen.I32(n),
			gen.Set(acc, gen.Xor(gen.Get(acc), buf.Load(gen.Get(i)))),
		),
		gen.Return(gen.Get(acc)),
	)
	mb.Export("handle", f)
	m, err := mb.Module()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// serveTestBurst drains requests across workers, one fresh isolate
// per request, all sharing cfg's simulated process.
func serveTestBurst(t *testing.T, cm leaps.CompiledModule, cfg leaps.Config, workers, requests int) {
	t.Helper()
	var queue atomic.Int64
	queue.Store(int64(requests))
	var wg sync.WaitGroup
	var firstErr atomic.Value
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for queue.Add(-1) >= 0 {
				inst, err := cm.Instantiate(cfg, nil)
				if err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
				if _, err := inst.Invoke("handle", 7); err != nil {
					firstErr.CompareAndSwap(nil, err)
					inst.Close()
					return
				}
				if err := inst.Close(); err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := firstErr.Load(); err != nil {
		t.Fatal(err)
	}
}

// TestServerlessLockContention is the paper's §4.2.1 claim as an
// obs-backed invariant: at 4 threads the mprotect strategy's isolate
// churn contends on the process-wide mmap lock, while the uffd
// strategy with a warmed arena pool serves the same burst without
// touching the lock at all.
func TestServerlessLockContention(t *testing.T) {
	const (
		workers  = 4
		requests = 120
	)
	// The contention invariant needs the workers actually running in
	// parallel (or at least multiplexed across OS threads); on a
	// small CI box GOMAXPROCS may be 1, which lets the scheduler
	// serialize the burst so cleanly that no acquisition ever waits.
	if runtime.GOMAXPROCS(0) < workers {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
	}
	module := buildHandlerModule(t)
	engine, closeEngine, err := leaps.NewEngine(leaps.EngineWasmtime)
	if err != nil {
		t.Fatal(err)
	}
	defer closeEngine()
	cm, err := engine.Compile(module)
	if err != nil {
		t.Fatal(err)
	}

	// mprotect: every instantiate/teardown mmaps, mprotects and
	// munmaps under the shared lock; with 4 workers churning isolates
	// some acquisitions must wait past the contention threshold.
	mp := leaps.NewProcess(leaps.ProfileX86())
	defer mp.Close()
	serveTestBurst(t, cm, mp.Config(leaps.Mprotect), workers, requests)

	if vm := mp.VMStats(); vm.LockContended == 0 {
		t.Errorf("mprotect at %d threads: lock_contended = 0, want > 0 (lock_wait_ns=%d)",
			workers, vm.LockWaitNs)
	}

	// uffd: pre-warm the arena pool with one arena per worker (held
	// concurrently, then recycled), so the measured burst runs in
	// steady state — every isolate pops a pooled arena, faults resolve
	// through userfaultfd, and nothing acquires the mmap lock.
	up := leaps.NewProcess(leaps.ProfileX86())
	defer up.Close()
	ucfg := up.Config(leaps.Uffd)
	warm := make([]leaps.Instance, workers)
	for i := range warm {
		inst, err := cm.Instantiate(ucfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := inst.Invoke("handle", 7); err != nil {
			t.Fatal(err)
		}
		warm[i] = inst
	}
	for _, inst := range warm {
		if err := inst.Close(); err != nil {
			t.Fatal(err)
		}
	}

	before := up.VMStats()
	serveTestBurst(t, cm, ucfg, workers, requests)
	after := up.VMStats()

	if d := after.LockContended - before.LockContended; d != 0 {
		t.Errorf("uffd steady state: lock_contended grew by %d, want 0", d)
	}
	if d := after.MmapCalls - before.MmapCalls; d != 0 {
		t.Errorf("uffd steady state: mmap_calls grew by %d, want 0 (arena pool not reused?)", d)
	}
	if d := after.UffdFaults - before.UffdFaults; d == 0 {
		t.Error("uffd steady state: no userfaultfd faults recorded; burst did not exercise the fault path")
	}
}

// TestServerlessZeroRecompiles is the compile-cache half of the
// serving story: after one burst warms the cache, every later
// cold start (fresh engine + Compile of the same module) is a cache
// hit — zero additional compiles.
func TestServerlessZeroRecompiles(t *testing.T) {
	module := buildHandlerModule(t)
	cache := leaps.CompileCache()

	// Warm-up: the only compile this function should ever need.
	engine, closeEngine, err := leaps.NewEngine(leaps.EngineWasmtime)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := engine.Compile(module)
	if err != nil {
		closeEngine()
		t.Fatal(err)
	}
	closeEngine()

	proc := leaps.NewProcess(leaps.ProfileX86())
	defer proc.Close()
	cfg := proc.Config(leaps.Uffd)

	before := cache.Stats()
	const coldStarts = 4
	for b := 0; b < coldStarts; b++ {
		engine, closeEngine, err := leaps.NewEngine(leaps.EngineWasmtime)
		if err != nil {
			t.Fatal(err)
		}
		cm, err = engine.Compile(module)
		if err != nil {
			closeEngine()
			t.Fatal(err)
		}
		serveTestBurst(t, cm, cfg, 2, 8)
		closeEngine()
	}
	after := cache.Stats()

	if got := after.Compiles - before.Compiles; got != 0 {
		t.Errorf("compiles after warm-up = %d, want 0", got)
	}
	if got := after.Hits - before.Hits; got < coldStarts {
		t.Errorf("cache hits = %d, want >= %d", got, coldStarts)
	}
}
