// Package tiered implements the V8 (TurboFan + Liftoff) analog: a
// tiered engine that instantiates modules on a fast baseline tier
// (the threaded interpreter) while background worker goroutines
// compile the optimized tier (the register-IR compiler), plus the two
// behaviours responsible for V8's multithreaded pathologies in the
// paper (§4.1.1, §4.2): internal worker threads that compete with
// executor threads for cores, and periodic stop-the-world garbage
// collection pauses that block all running isolates.
package tiered

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"leapsandbounds/internal/compiled"
	"leapsandbounds/internal/core"
	"leapsandbounds/internal/interp"
	"leapsandbounds/internal/isa"
	"leapsandbounds/internal/mem"
	"leapsandbounds/internal/obs"
	"leapsandbounds/internal/validate"
	"leapsandbounds/internal/wasm"
)

// Tuning constants for the simulated runtime services.
const (
	// compileCostPerOp is the simulated optimizing-compiler work per
	// wasm instruction, run on a background worker.
	compileCostPerOp = 300 * time.Nanosecond
	// gcInterval is how often the "heap" is collected while isolates
	// are executing.
	gcInterval = 4 * time.Millisecond
	// gcPause is the stop-the-world duration per collection.
	gcPause = 150 * time.Microsecond
	// sweepSlice is the background work each idle worker performs
	// while isolates are active, modelling V8's background sweeping
	// and compilation jobs.
	sweepSlice = 40 * time.Microsecond
	// sweepPoll is how often workers look for background work.
	sweepPoll = 2 * time.Millisecond
	// safepointWaitThreshold is the minimum world-lock wait an
	// invocation retroactively reports as a safepoint_wait span —
	// the same cutoff the vmm uses for mmap-lock contention, so the
	// two lock-wait attributions are comparable.
	safepointWaitThreshold = 500 * time.Nanosecond
)

// A break of the engine contract is a build error here, in the package
// that caused it.
var (
	_ core.Engine         = (*Engine)(nil)
	_ core.CompiledModule = (*module)(nil)
	_ core.Instance       = (*instance)(nil)
)

// Engine is the tiered engine. It owns background workers and the
// GC controller; call Close when done (tests and the harness do).
type Engine struct {
	baseline *interp.Engine
	topTier  *compiled.Engine

	jobs    chan func()
	stop    chan struct{}
	stopped sync.Once
	wg      sync.WaitGroup

	// world is the stop-the-world lock: invocations hold it shared,
	// the GC takes it exclusively.
	world sync.RWMutex
	// active counts in-flight invocations; GC and sweeps only run
	// when isolates are busy.
	active atomic.Int64

	// Stats. gcPauses and tierUps are the engine's own counters;
	// AttachObs registers these same objects in a registry.
	gcPauses   obs.Counter
	tierUps    obs.Counter
	sweeps     atomic.Int64
	warmStarts atomic.Int64

	// obsSc is the attached trace scope; read by background workers
	// and the GC loop, hence an atomic pointer (nil scope is a no-op).
	obsSc atomic.Pointer[obs.Scope]
}

// AttachObs records the engine's runtime-service spans (tier-up
// recompiles, stop-the-world GC pauses) into sc and registers their
// counters there. Safe to call at any time; spans before attachment
// are not recorded, the counters cover the engine's whole life.
func (e *Engine) AttachObs(sc *obs.Scope) {
	e.obsSc.Store(sc)
	sc.RegisterCounter("gc_pauses", &e.gcPauses)
	sc.RegisterCounter("tier_ups", &e.tierUps)
}

// New creates the tiered engine with V8-like worker threads: the
// paper observes V8 spawning workers for JIT compilation and GC that
// compete with executor threads when all cores are busy.
func New() *Engine {
	e := &Engine{
		baseline: interp.NewConfigurable(),
		topTier:  compiled.NewWAVM(),
		jobs:     make(chan func(), 64),
		stop:     make(chan struct{}),
	}
	// The top tier is wavm's pipeline, optimized and lowered to
	// register IR (TurboFan's sea-of-nodes analog), with bounds-check
	// elision off, so the tier still trails WAVM as the paper observes.
	// wavm has an elision pass, so turning it off cannot fail.
	_ = e.topTier.SetElision(false)
	workers := max(2, runtime.NumCPU()/4)
	for i := 0; i < workers; i++ {
		e.wg.Add(1)
		go e.worker()
	}
	e.wg.Add(1)
	go e.gcLoop()
	return e
}

// Name implements core.Engine.
func (e *Engine) Name() string { return "v8" }

// Close stops the background workers.
func (e *Engine) Close() {
	e.stopped.Do(func() { close(e.stop) })
	e.wg.Wait()
}

// stats reports runtime-service activity (the package's tests read
// it).
type stats struct {
	GCPauses, TierUps, Sweeps int64
	// WarmStarts counts modules whose optimized tier was adopted
	// from the compile cache instead of recompiled.
	WarmStarts int64
}

// stats returns a snapshot of runtime-service counters.
func (e *Engine) stats() stats {
	return stats{
		GCPauses:   e.gcPauses.Load(),
		TierUps:    e.tierUps.Load(),
		Sweeps:     e.sweeps.Load(),
		WarmStarts: e.warmStarts.Load(),
	}
}

func (e *Engine) worker() {
	defer e.wg.Done()
	ticker := time.NewTicker(sweepPoll)
	defer ticker.Stop()
	for {
		select {
		case <-e.stop:
			return
		case job := <-e.jobs:
			job()
		case <-ticker.C:
			// Background sweeping happens only while isolates run;
			// this is the work that oversubscribes the CPU when all
			// cores already host executor threads.
			if e.active.Load() > 0 {
				e.sweeps.Add(1)
				busySpin(sweepSlice)
			}
		}
	}
}

func (e *Engine) gcLoop() {
	defer e.wg.Done()
	ticker := time.NewTicker(gcInterval)
	defer ticker.Stop()
	for {
		select {
		case <-e.stop:
			return
		case <-ticker.C:
			if e.active.Load() == 0 {
				continue
			}
			// Stop the world: block new invocations, wait for the
			// running ones to reach their safepoint (invoke exit),
			// then pause.
			t0 := time.Now()
			e.world.Lock()
			e.gcPauses.Add(1)
			busySpin(gcPause)
			e.world.Unlock()
			// The reported pause includes the safepoint wait: that is
			// what executor threads lose, which is the quantity the
			// paper's V8 tail-latency discussion cares about.
			e.obsSc.Load().EndedSpan(obs.SpanGCPause, obs.SpanRef{}, time.Since(t0).Nanoseconds())
		}
	}
}

func busySpin(d time.Duration) {
	t0 := time.Now()
	for time.Since(t0) < d {
	}
}

// SetCache implements core.Engine by forwarding to both tiers:
// the tiered module itself is never cached (it holds a pointer to
// this engine, which owns goroutines and a Close method), but its
// per-tier artifacts are plain interp/compiled modules and cache
// like any other.
func (e *Engine) SetCache(c core.ModuleCache) {
	e.baseline.SetCache(c)
	e.topTier.SetCache(c)
}

// Compile implements core.Engine: the baseline tier compiles
// synchronously (fast, like Liftoff); the optimizing tier is
// scheduled on a background worker and swapped in when ready. When
// the optimized artifact is already in the module cache — a warm
// start, the serving scenario's steady state — it is adopted
// immediately: no background job, no simulated optimizing-compile
// cost, and WaitReady returns at once.
func (e *Engine) Compile(m *wasm.Module) (core.CompiledModule, error) {
	if err := validate.Module(m); err != nil {
		return nil, err
	}
	base, err := e.baseline.Compile(m)
	if err != nil {
		return nil, err
	}
	tm := &module{engine: e, wasm: m, baseline: base}
	if top, ok := e.topTier.CachedModule(m); ok {
		tm.top.Store(top)
		e.warmStarts.Add(1)
		return tm, nil
	}
	ops := 0
	for i := range m.Code {
		ops += len(m.Code[i].Body)
	}
	job := func() {
		// Re-probe on the worker: another engine may have compiled
		// the artifact while this job sat in the queue, in which case
		// the optimizing-compiler work (the busy spin) never happens.
		if top, ok := e.topTier.CachedModule(m); ok {
			tm.top.Store(top)
			e.warmStarts.Add(1)
			return
		}
		// The tier-up compile is a root span: it runs on a background
		// worker with no causal tie to any one invocation, and its
		// lane in the trace is exactly the CPU time the paper blames
		// for V8's multithreaded pathologies.
		sp := e.obsSc.Load().StartSpan(obs.SpanTierUp, obs.SpanRef{})
		defer sp.End()
		busySpin(time.Duration(ops) * compileCostPerOp)
		top, err := e.topTier.CompileModule(m)
		if err == nil {
			tm.top.Store(top)
			e.tierUps.Add(1)
		}
	}
	select {
	case e.jobs <- job:
	default:
		// Queue full: compile inline, as V8 does under pressure.
		job()
	}
	return tm, nil
}

// waitTopTier blocks until the optimizing tier is available, for
// benchmarks that want warmed-up code only.
func (m *module) waitTopTier(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if m.top.Load() != nil {
			return true
		}
		time.Sleep(100 * time.Microsecond)
	}
	return m.top.Load() != nil
}

// tierCfg labels the config for the sampling profiler so the tiered
// engine's baseline and optimized tiers attribute separately, both
// from each other and from the standalone engines' self-labels. An
// explicit caller label wins.
func tierCfg(cfg core.Config, label string) core.Config {
	if cfg.ProfLabel == "" {
		cfg.ProfLabel = label
	}
	return cfg
}

// module is the tiered compiled module.
type module struct {
	engine   *Engine
	wasm     *wasm.Module
	baseline core.CompiledModule
	top      atomic.Pointer[compiled.Module]
}

// Instantiate implements core.CompiledModule.
func (m *module) Instantiate(cfg core.Config, imports core.Imports) (core.Instance, error) {
	return m.instantiate(cfg, imports, nil)
}

// InstantiateSnapshot implements core.CompiledModule: forks adopt the
// best tier available at fork time — in the serving steady state that
// is the optimized tier, even when the template's donor instance ran
// on the baseline before tier-up finished.
func (m *module) InstantiateSnapshot(cfg core.Config, imports core.Imports, snap *core.StateSnapshot) (core.Instance, error) {
	return m.instantiate(cfg, imports, snap)
}

// instantiate creates one isolate, fresh or (snap non-nil) forked, on
// the best available tier.
func (m *module) instantiate(cfg core.Config, imports core.Imports, snap *core.StateSnapshot) (core.Instance, error) {
	var inner core.Instance
	var err error
	if top := m.top.Load(); top != nil {
		inner, err = top.InstantiateSnapshot(tierCfg(cfg, "tiered-top"), imports, snap)
	} else {
		inner, err = m.baseline.InstantiateSnapshot(tierCfg(cfg, "tiered-baseline"), imports, snap)
	}
	if err != nil {
		return nil, err
	}
	return &instance{engine: m.engine, inner: inner, obs: cfg.Obs, span: cfg.Span}, nil
}

// instance wraps a tier instance with the GC safepoint protocol.
type instance struct {
	engine *Engine
	inner  core.Instance
	// obs/span carry the instantiation's trace context so the wait
	// for the world lock — time this isolate lost to a stop-the-world
	// pause — attributes to the iteration that paid it.
	obs  *obs.Scope
	span obs.SpanRef
}

// Invoke implements core.Instance, holding the world lock shared so
// a GC pause blocks it (and it blocks GC until the safepoint). When
// tracing is on, a lock wait past the contention threshold is
// retroactively recorded as a safepoint_wait span under the
// instance's parent — the tiered-engine analog of vma_lock_wait.
func (i *instance) Invoke(name string, args ...uint64) ([]uint64, error) {
	if i.obs.TracingEnabled() {
		t0 := time.Now()
		i.engine.world.RLock()
		if wait := time.Since(t0); wait > safepointWaitThreshold {
			i.obs.EndedSpan(obs.SpanSafepointWait, i.span, wait.Nanoseconds())
		}
	} else {
		i.engine.world.RLock()
	}
	i.engine.active.Add(1)
	defer func() {
		i.engine.active.Add(-1)
		i.engine.world.RUnlock()
	}()
	return i.inner.Invoke(name, args...)
}

// Memory implements core.Instance.
func (i *instance) Memory() *mem.Memory { return i.inner.Memory() }

// Counts implements core.Instance.
func (i *instance) Counts() *isa.Counts { return i.inner.Counts() }

// Close implements core.Instance.
func (i *instance) Close() error { return i.inner.Close() }

// Snapshot implements core.Instance by freezing the inner tier's
// state. Snapshots are tier-independent — memory image, globals,
// table — so a baseline donor's snapshot restores into an optimized
// fork once tier-up completes.
func (i *instance) Snapshot() (*core.StateSnapshot, error) { return i.inner.Snapshot() }

// WaitReady blocks until cm's optimizing tier is compiled (or the
// timeout passes), returning whether it is ready. The harness calls
// this during warm-up so measured iterations run optimized code,
// matching the paper's protocol of excluding warm-up runs.
func WaitReady(cm core.CompiledModule, timeout time.Duration) bool {
	if m, ok := cm.(*module); ok {
		return m.waitTopTier(timeout)
	}
	return true
}
