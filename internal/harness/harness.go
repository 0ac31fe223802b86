// Package harness reproduces the paper's benchmarking methodology
// (§3.5): the module is compiled once, then worker threads — one per
// configured thread, OS-thread-locked to model the paper's CPU
// pinning — each run a warm-up phase, a timed loop executing a fresh
// isolate per iteration, and a cool-down phase that keeps every
// thread busy until all threads finish their measured runs. Only
// module execution is timed; instance setup and tear-down run
// between timed regions (but their mmap/mprotect/munmap traffic
// still contends with other threads' timed regions, which is the
// effect under study).
//
// The native baseline runs the workload's Go twin, modelling the
// paper's native-Clang runner (which spawns a process per iteration;
// the paper measured that overhead to be negligible and so does not
// include it, nor do we).
package harness

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"leapsandbounds/internal/compiled"
	"leapsandbounds/internal/core"
	"leapsandbounds/internal/faultinject"
	"leapsandbounds/internal/interp"
	"leapsandbounds/internal/isa"
	"leapsandbounds/internal/mem"
	"leapsandbounds/internal/obs"
	"leapsandbounds/internal/prof"
	"leapsandbounds/internal/stats"
	"leapsandbounds/internal/sysmon"
	"leapsandbounds/internal/tiered"
	"leapsandbounds/internal/trap"
	"leapsandbounds/internal/vmm"
	"leapsandbounds/internal/workloads"
)

// Engine names accepted by Options.Engine, in the paper's order.
const (
	EngineNative   = "native"
	EngineWAVM     = "wavm"
	EngineWasmtime = "wasmtime"
	EngineV8       = "v8"
	EngineWasm3    = "wasm3"
)

// EngineNames lists all runnable engines.
func EngineNames() []string {
	return []string{EngineNative, EngineWAVM, EngineWasmtime, EngineV8, EngineWasm3}
}

// WasmEngineNames lists the WebAssembly engines (everything but the
// native baseline).
func WasmEngineNames() []string {
	return []string{EngineWAVM, EngineWasmtime, EngineV8, EngineWasm3}
}

// Options configures one benchmark run.
type Options struct {
	Engine   string
	Workload workloads.Spec
	Class    workloads.Class
	Strategy mem.Strategy
	Profile  *isa.Profile
	// Threads is the number of parallel isolates (the paper uses 1,
	// 4 and 16). Defaults to 1.
	Threads int
	// Warmup and Measure are per-thread iteration counts; defaults 2
	// and 8.
	Warmup, Measure int
	// CountCycles enables the per-ISA cycle model (wasm engines
	// only).
	CountCycles bool
	// UffdNoPool runs the Uffd strategy without arena recycling
	// (ablation, see core.Config.UffdNoPool).
	UffdNoPool bool
	// UffdPoll selects poll-based uffd fault delivery (ablation,
	// see core.Config.UffdPoll).
	UffdPoll bool
	// EagerCommit selects grow-time commit for the Mprotect
	// strategy (ablation, see core.Config.EagerCommit).
	EagerCommit bool
	// NoCache detaches the run's engine from the process-wide module
	// cache, so every Run pays the full compile (the cold-start
	// baseline for cache benchmarks).
	NoCache bool
	// NoElide disables bounds-check elision in engines that support
	// it (the wavm analog), for the elision ablation. The flag folds
	// into the module-cache key, so elided and unelided compiles of
	// the same module never alias.
	NoElide bool
	// NoRIR disables the register-IR recompile tier in engines that
	// support it (wavm and the tiered engine's top tier), for the
	// lowering ablation. Like NoElide it folds into the module-cache
	// key.
	NoRIR bool
	// Processes splits the workers across this many simulated
	// processes (separate address spaces, separate mmap locks) —
	// the paper's §4.2.1 alternative mitigation: "limit the number
	// of executor threads per process, and instead build a
	// multiprocess runtime". Defaults to 1 (the paper's isolate-
	// per-thread single process).
	Processes int
	// Fault, when non-nil, runs the benchmark under deterministic
	// fault injection: each simulated process gets an injector seeded
	// by Plan.Derive(process index), and iteration failures are
	// recorded as failure causes in the result instead of aborting
	// the run (partial results). With Fault nil any worker error
	// aborts the run, as before.
	Fault *faultinject.Plan
	// Obs receives the run's telemetry. Each Run registers its
	// metrics and spans under one labeled scope (RunLabel),
	// with one child scope per simulated process, so a single
	// registry can hold every run of a figure and still attribute
	// every mmap-lock wait to its configuration. Nil leaves the run
	// unobserved (each address space falls back to a private
	// registry).
	Obs *obs.Registry
	// Prof, when non-nil and started, samples every instance the run
	// creates: each isolate registers a per-instance cell keyed by
	// engine label and strategy, and the profiler's snapshot splits
	// self time between bounds-check and payload opcode classes. Nil
	// (the default) compiles to the unsampled hot loops.
	Prof *prof.Profiler
	// HWCounters reads a perf_event counter group per worker thread
	// plus process-wide rusage deltas around the measurement window
	// and folds them into Result.HW. Degrades to zeroed, unsupported
	// stats when perf_event_open is unavailable (container seccomp,
	// perf_event_paranoid, non-Linux).
	HWCounters bool
}

// RunLabel is the scope name a run registers under in Options.Obs:
// "run[engine=E workload=W strategy=S threads=N]", followed by every
// other field that tells two configurations apart, at its non-default
// value only — two runs share a scope exactly when they measure the
// same thing. Defaulted fields print their effective values (Threads 0
// runs as 1). A profile whose parameters were edited needs a name of
// its own to be told from its base (the ablations rename theirs).
func (o Options) RunLabel() string {
	threads := o.Threads
	if threads <= 0 {
		threads = 1
	}
	flags := ""
	if o.Profile != nil && o.Profile.Name != "x86_64" {
		flags += " isa=" + o.Profile.Name
	}
	if o.CountCycles {
		flags += " cycles=on"
	}
	if procs := min(o.Processes, threads); procs > 1 {
		flags += fmt.Sprintf(" procs=%d", procs)
	}
	if o.UffdNoPool {
		flags += " pool=off"
	}
	if o.UffdPoll {
		flags += " uffd=poll"
	}
	if o.EagerCommit {
		flags += " commit=eager"
	}
	if o.NoElide {
		flags += " elide=off"
	}
	if o.NoRIR {
		flags += " rir=off"
	}
	return fmt.Sprintf("run[engine=%s workload=%s strategy=%s threads=%d%s]",
		o.Engine, o.Workload.Name, o.Strategy, threads, flags)
}

// Result is one benchmark measurement.
type Result struct {
	Engine   string
	Workload string
	Suite    string
	Strategy mem.Strategy
	Profile  string
	Threads  int

	// Times are the per-iteration wall times of module execution,
	// across all threads.
	Times      []time.Duration
	MedianWall time.Duration
	MeanWall   time.Duration
	// Throughput is measured iterations per second aggregated over
	// all threads during the measurement window.
	Throughput float64
	// Wall is the duration of the measurement window.
	Wall time.Duration

	// Host statistics over the measurement window. When procfs is
	// unavailable (SysmonOK false) both are derived from the
	// simulated machine instead: CPU utilization as worker time not
	// spent blocked on the simulated mmap lock, and the context-
	// switch rate as twice the contended lock acquisitions plus GC
	// pauses (each block/wake pair is two switches).
	CPUPercent float64
	CtxtPerSec float64
	SysmonOK   bool

	// Simulated-machine statistics.
	VM            vmm.StatsSnapshot // counter deltas
	ResidentPeak  int64
	ResidentMean  int64
	MedianSimTime time.Duration // cycle model; 0 when not counted
	// Counts is one measured iteration's executed operations by class
	// (Options.CountCycles; nil when not counted): what MedianSimTime
	// prices, and the histogram behind the paper's motivation that
	// loads and stores make up ~40% of programs (§2.3), so per-access
	// checks are expensive.
	Counts *isa.Counts

	// Checksum of the workload result (identical across iterations).
	Checksum uint64

	// HW holds hardware-counter and rusage deltas over the measurement
	// window (Options.HWCounters): perf_event group reads summed
	// across worker threads, rusage process-wide. Zero-valued with
	// both Supported flags false when not requested or unavailable.
	HW prof.HWStats

	// FailureCauses counts failed iterations by cause (only populated
	// under fault injection, where failures are tolerated rather than
	// fatal); FailedIters is the total across causes.
	FailureCauses map[string]int
	FailedIters   int
}

// NewEngine constructs a wasm engine by name. The caller must invoke
// the returned cleanup (the V8 analog owns background goroutines).
func NewEngine(name string) (core.Engine, func(), error) {
	switch name {
	case EngineWAVM:
		return compiled.NewWAVM(), func() {}, nil
	case EngineWasmtime:
		return compiled.NewWasmtime(), func() {}, nil
	case EngineWasm3:
		return interp.NewWasm3(), func() {}, nil
	case EngineV8:
		e := tiered.New()
		return e, e.Close, nil
	default:
		return nil, nil, fmt.Errorf("harness: unknown engine %q", name)
	}
}

// Run executes one configuration and returns its measurements.
func Run(opts Options) (*Result, error) {
	if opts.Profile == nil {
		return nil, errors.New("harness: Options.Profile is required")
	}
	if opts.Threads <= 0 {
		opts.Threads = 1
	}
	if opts.Warmup <= 0 {
		opts.Warmup = 2
	}
	if opts.Measure <= 0 {
		opts.Measure = 8
	}

	module, native, err := opts.Workload.BuildChecked(opts.Class)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Engine:   opts.Engine,
		Workload: opts.Workload.Name,
		Suite:    opts.Workload.Suite,
		Strategy: opts.Strategy,
		Profile:  opts.Profile.Name,
		Threads:  opts.Threads,
	}

	// The workers are split across one or more simulated processes,
	// each with its own address space (and mmap lock) and arena pool.
	numProcs := opts.Processes
	if numProcs <= 0 {
		numProcs = 1
	}
	if numProcs > opts.Threads {
		numProcs = opts.Threads
	}
	runScope := opts.Obs.Scope(opts.RunLabel())
	iterHist := runScope.Histogram("iter_wall_ns")
	// Root of the run's causal span tree (inert unless the registry
	// has tracing enabled); everything below — iterations, invokes,
	// faults, kernel ops, lock waits — parents back to it.
	runSpan := runScope.StartSpan(obs.SpanRun, obs.SpanRef{})
	defer runSpan.End()

	procs := make([]*vmm.AddressSpace, numProcs)
	pools := make([]*mem.ArenaPool, numProcs)
	engineScopes := make([]*obs.Scope, numProcs)
	for p := range procs {
		procScope := runScope.Child(fmt.Sprintf("proc%d", p))
		procs[p] = vmm.NewObserved(opts.Profile.VM, procScope.Child("vmm"))
		engineScopes[p] = procScope.Child("engine")
		if opts.Strategy == mem.Uffd && !opts.UffdNoPool {
			pools[p] = mem.NewArenaPool()
		}
		if opts.Fault != nil {
			// Each simulated process draws from its own derived seed so
			// multi-process runs stay replayable per process.
			procs[p].SetInjector(faultinject.New(
				opts.Fault.Derive(int64(p)), procScope.Child("faultinject")))
		}
	}

	// iterators[p] runs one isolate lifecycle in process p and
	// returns the timed execution duration, the checksum, and the
	// iteration's executed-op counts (nil when not counted). parent is
	// the iteration span the lifecycle's spans nest under (zero when
	// tracing is off).
	iterators := make([]func(parent obs.SpanRef) (time.Duration, uint64, *isa.Counts, error), numProcs)

	if opts.Engine == EngineNative {
		for p := range iterators {
			iterators[p] = func(obs.SpanRef) (time.Duration, uint64, *isa.Counts, error) {
				t0 := time.Now()
				sum := native()
				return time.Since(t0), sum, nil, nil
			}
		}
	} else {
		eng, cleanup, err := NewEngine(opts.Engine)
		if err != nil {
			return nil, err
		}
		defer cleanup()
		if opts.NoCache {
			eng.SetCache(nil)
		}
		if opts.NoElide || opts.NoRIR {
			// Read the engine's current defaults and clear only the
			// ablated knobs, so one ablation never resets the other.
			cg := eng.Codegen()
			if opts.NoElide {
				cg.BoundsElision = false
			}
			if opts.NoRIR {
				cg.RegisterIR = false
			}
			eng.SetCodegen(cg)
		}
		if te, ok := eng.(*tiered.Engine); ok {
			te.AttachObs(runScope.Child("v8"))
		}
		cm, err := eng.Compile(module)
		if err != nil {
			return nil, fmt.Errorf("harness: compile %s on %s: %w", opts.Workload.Name, opts.Engine, err)
		}
		for p := range iterators {
			cfg := core.Config{
				Strategy:    opts.Strategy,
				Profile:     opts.Profile,
				AS:          procs[p],
				Pool:        pools[p],
				CountCycles: opts.CountCycles,
				UffdNoPool:  opts.UffdNoPool,
				UffdPoll:    opts.UffdPoll,
				EagerCommit: opts.EagerCommit,
				Obs:         engineScopes[p],
				Prof:        opts.Prof,
			}
			iterators[p] = func(parent obs.SpanRef) (time.Duration, uint64, *isa.Counts, error) {
				c := cfg
				c.Span = parent
				// Hostcall workloads get a fresh environment per
				// iteration: the env owns the in-memory filesystem the
				// workload mutates, and iteration checksums must be
				// stable.
				var im core.Imports
				if opts.Workload.NewEnv != nil {
					im = opts.Workload.NewEnv(opts.Class).Imports()
				}
				inst, err := core.InstantiateWithRetry(cm, c, im)
				if err != nil {
					return 0, 0, nil, err
				}
				t0 := time.Now()
				out, err := inst.Invoke(workloads.Entry)
				dt := time.Since(t0)
				var counts *isa.Counts
				if c := inst.Counts(); c != nil {
					cp := *c
					counts = &cp
				}
				closeErr := inst.Close()
				if err != nil {
					return 0, 0, nil, err
				}
				if closeErr != nil {
					return 0, 0, nil, closeErr
				}
				if len(out) == 0 {
					return 0, 0, nil, errors.New("harness: workload returned no checksum")
				}
				return dt, out[0], counts, nil
			}
		}
		// Give the tiered engine time to reach its optimizing tier so
		// measured runs execute optimized code, as warmed-up V8 does.
		tiered.WaitReady(cm, 10*time.Second)
	}

	type workerOut struct {
		times   []time.Duration
		sims    []time.Duration
		counts  *isa.Counts
		sum     uint64
		haveSum bool
		err     error
		causes  map[string]int
		// hw is the worker's perf-group delta over its measure phase
		// (OK=false when counters are off or unavailable).
		hw prof.CounterSample
	}
	outs := make([]workerOut, opts.Threads)

	// With fault injection active, iteration failures are recorded by
	// cause and the run continues (partial results); without it any
	// failure aborts, as before.
	tolerate := opts.Fault != nil
	failScope := runScope.Child("failures")
	record := func(o *workerOut, err error) {
		cause := failureCause(err)
		if o.causes == nil {
			o.causes = make(map[string]int)
		}
		o.causes[cause]++
		failScope.Counter(cause).Inc()
	}

	var (
		warmed    sync.WaitGroup
		start     = make(chan struct{})
		measured  atomic.Int64
		finished  sync.WaitGroup
		threads   = opts.Threads
		stopWatch = make(chan struct{})
		watchDone = make(chan struct{})
	)

	// Resident-memory watcher.
	var residentPeak, residentSum, residentSamples atomic.Int64
	go func() {
		defer close(watchDone)
		ticker := time.NewTicker(500 * time.Microsecond)
		defer ticker.Stop()
		for {
			select {
			case <-stopWatch:
				return
			case <-ticker.C:
				var r int64
				for _, as := range procs {
					r += as.ResidentBytes()
				}
				residentSum.Add(r)
				residentSamples.Add(1)
				for {
					old := residentPeak.Load()
					if r <= old || residentPeak.CompareAndSwap(old, r) {
						break
					}
				}
			}
		}
	}()

	warmed.Add(threads)
	finished.Add(threads)
	for w := 0; w < threads; w++ {
		go func(w int) {
			defer finished.Done()
			// Model the paper's CPU pinning: bind the goroutine to an
			// OS thread so the scheduler treats workers as the
			// paper's pinned worker threads.
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			// The perf group is opened after the OS-thread lock so its
			// calling-thread scope covers exactly this worker's
			// execution; it brackets the measure phase only (warm-up
			// and cool-down iterations are excluded, matching Times).
			var pg *prof.Group
			if opts.HWCounters {
				pg = prof.OpenGroup()
				defer pg.Close()
			}
			as := procs[w%numProcs]
			inner := iterators[w%numProcs]
			// Each isolate lifecycle gets an iteration span under the
			// run root; the lifecycle's own spans (instantiate, invoke,
			// faults, kernel ops) nest under it through Config.Span.
			iterate := func() (time.Duration, uint64, *isa.Counts, error) {
				sp := runScope.StartSpan(obs.SpanIter, runSpan.Ref())
				dt, sum, counts, err := inner(sp.Ref())
				sp.End()
				return dt, sum, counts, err
			}
			as.AddThread()
			defer as.RemoveThread()

			o := &outs[w]
			for i := 0; i < opts.Warmup; i++ {
				if _, _, _, err := iterate(); err != nil {
					if tolerate {
						record(o, err)
						continue
					}
					o.err = err
					warmed.Done()
					return
				}
			}
			warmed.Done()
			<-start
			var hw0 prof.CounterSample
			if pg != nil {
				hw0 = pg.Read()
			}

			for i := 0; i < opts.Measure; i++ {
				dt, sum, counts, err := iterate()
				if err != nil {
					if tolerate {
						record(o, err)
						continue
					}
					o.err = err
					measured.Add(1)
					return
				}
				if !o.haveSum {
					o.sum = sum
					o.haveSum = true
				} else if sum != o.sum {
					// Checksum divergence is fatal even under injection:
					// injected transient faults must never change results,
					// only retry and fallback counters.
					o.err = fmt.Errorf("harness: nondeterministic checksum: %#x vs %#x", sum, o.sum)
					measured.Add(1)
					return
				}
				o.times = append(o.times, dt)
				iterHist.Observe(dt.Nanoseconds())
				if counts != nil {
					o.sims = append(o.sims, opts.Profile.Time(counts))
					o.counts = counts
				}
			}
			if pg != nil {
				o.hw = hw0.Delta(pg.Read())
			}
			measured.Add(1)

			// Cool-down: keep the CPU busy until every thread has
			// finished its measured runs (paper §3.5).
			for measured.Load() < int64(threads) {
				if _, _, _, err := iterate(); err != nil {
					if tolerate {
						record(o, err)
						continue
					}
					o.err = err
					return
				}
			}
		}(w)
	}

	warmed.Wait()
	var ru0 prof.RusageSample
	if opts.HWCounters {
		ru0 = prof.ReadRusage()
	}
	before := sysmon.Read()
	vmBefore := sumSnapshots(procs)
	t0 := time.Now()
	close(start)
	finished.Wait()
	wall := time.Since(t0)
	after := sysmon.Read()
	vmAfter := sumSnapshots(procs)
	if opts.HWCounters {
		// Rusage is process-wide, so its window is the whole measured
		// wall (including other workers' cool-down iterations); the
		// per-thread perf groups above are the precise half.
		res.HW.MergeRusage(ru0.Delta(prof.ReadRusage()))
	}
	close(stopWatch)
	// Join the watcher: it reads the address spaces and a snapshot
	// taken after Run returns must not race its final tick.
	<-watchDone

	var allTimes, allSims []time.Duration
	var checksum uint64
	for w := range outs {
		if outs[w].err != nil {
			return nil, fmt.Errorf("harness: worker %d: %w", w, outs[w].err)
		}
		allTimes = append(allTimes, outs[w].times...)
		allSims = append(allSims, outs[w].sims...)
		if outs[w].haveSum {
			checksum = outs[w].sum
		}
		if outs[w].counts != nil {
			res.Counts = outs[w].counts
		}
		res.HW.MergeCounters(outs[w].hw)
		for cause, n := range outs[w].causes {
			if res.FailureCauses == nil {
				res.FailureCauses = make(map[string]int)
			}
			res.FailureCauses[cause] += n
			res.FailedIters += n
		}
	}
	res.Times = allTimes
	res.MedianWall = stats.MedianDurations(allTimes)
	meanNs := 0.0
	for _, d := range allTimes {
		meanNs += float64(d)
	}
	if len(allTimes) > 0 {
		res.MeanWall = time.Duration(meanNs / float64(len(allTimes)))
	}
	res.Wall = wall
	if wall > 0 {
		res.Throughput = float64(len(allTimes)) / wall.Seconds()
	}
	if len(allSims) > 0 {
		res.MedianSimTime = stats.MedianDurations(allSims)
	}
	res.Checksum = checksum

	usage := sysmon.Delta(before, after)
	res.SysmonOK = usage.OK
	res.VM = vmAfter.Sub(vmBefore)
	if usage.OK {
		res.CPUPercent = usage.CPUPercent
		res.CtxtPerSec = usage.CtxtPerSec
	} else if wall > 0 {
		// Simulated fallback: workers are runnable except while
		// blocked on the mmap lock.
		busy := float64(threads)*wall.Seconds() - float64(res.VM.LockWaitNs)/1e9
		if busy < 0 {
			busy = 0
		}
		res.CPUPercent = busy / wall.Seconds() * 100
		res.CtxtPerSec = 2 * float64(res.VM.LockContended) / wall.Seconds()
	}

	res.ResidentPeak = residentPeak.Load()
	if n := residentSamples.Load(); n > 0 {
		res.ResidentMean = residentSum.Load() / n
	}

	// Publish the run's headline numbers so a metrics dump is
	// self-contained: whoever reads the registry sees the same values
	// the figure tables print. Percentages keep two decimals via a
	// x100 fixed-point gauge.
	runScope.Gauge("cpu_percent_x100").Set(int64(res.CPUPercent * 100))
	runScope.Gauge("ctxt_per_sec").Set(int64(res.CtxtPerSec))
	runScope.Gauge("resident_peak_bytes").Set(res.ResidentPeak)
	runScope.Gauge("throughput_x1000").Set(int64(res.Throughput * 1000))
	runScope.Counter("iterations").Add(int64(len(allTimes)))
	if res.FailedIters > 0 {
		runScope.Counter("failed_iters").Add(int64(res.FailedIters))
	}

	for _, pool := range pools {
		if pool != nil {
			pool.Drain()
		}
	}
	return res, nil
}

// failureCause classifies an iteration error for partial-result
// accounting: injected transient faults name their site, traps name
// their kind, anything else is generic. Strings are deterministic so
// replayed chaos runs produce identical cause maps.
func failureCause(err error) string {
	if site, ok := faultinject.IsTransient(err); ok {
		return "transient:" + site.String()
	}
	var t *trap.Trap
	if errors.As(err, &t) {
		return "trap:" + t.Kind.String()
	}
	return "error"
}

// sumSnapshots aggregates counters across simulated processes.
func sumSnapshots(procs []*vmm.AddressSpace) vmm.StatsSnapshot {
	var sum vmm.StatsSnapshot
	for _, as := range procs {
		sum = sum.Add(as.Snapshot())
	}
	return sum
}
