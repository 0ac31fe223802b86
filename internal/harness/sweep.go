// Sweep scheduling: figure sweeps are bags of independent (engine,
// workload, strategy) configurations, and most of them — the paper's
// single-threaded figures 1 and 2 — measure per-iteration wall time
// of one isolate, so they can share the host with other such runs.
// The thread-scaling configurations (figures 3–5) measure contention
// itself and must own the machine. RunSweep packs the shareable runs
// onto a worker pool and serializes the exclusive ones, preserving
// input order in the results.
package harness

import (
	"runtime"
	"sync"
	"time"

	"leapsandbounds/internal/obs"
)

// SweepItem is one configuration in a sweep.
type SweepItem struct {
	Opts Options
	// Exclusive marks a run that must own the host while it executes
	// (thread-scaling and multiprocess configurations, whose measured
	// quantity is contention). Exclusive runs never overlap with any
	// other run; shareable runs pack onto the worker pool.
	Exclusive bool
}

// autoExclusive applies the paper-derived taxonomy: a configuration
// that runs more than one worker (threads or simulated processes)
// measures scaling behaviour and gets the host to itself; everything
// else is a single-isolate latency measurement and can share.
func autoExclusive(opts Options) bool {
	return opts.Threads > 1 || opts.Processes > 1
}

// SweepOf wraps configurations as sweep items using autoExclusive.
func SweepOf(optss ...Options) []SweepItem {
	items := make([]SweepItem, len(optss))
	for i, o := range optss {
		items[i] = SweepItem{Opts: o, Exclusive: autoExclusive(o)}
	}
	return items
}

// SweepResult is one configuration's outcome.
type SweepResult struct {
	Opts      Options
	Exclusive bool
	Result    *Result
	Err       error
	// Queued is how long the item waited before starting; RunFor is
	// its execution time.
	Queued, RunFor time.Duration
}

// SweepOptions tunes the scheduler.
type SweepOptions struct {
	// Workers bounds concurrent shareable runs; 0 means GOMAXPROCS.
	Workers int
	// Serial disables overlap entirely (the cold-baseline mode the
	// cache benchmark compares against).
	Serial bool
	// Obs receives the sweep's telemetry under a "sweep" scope:
	// queue/run time histograms, per-outcome counters, and the
	// wall-clock accounting (wall_ns, serial_work_ns, saved_ns) that
	// quantifies what parallel packing bought.
	Obs *obs.Registry
}

// runFn indirects Run so scheduler tests can substitute a stub.
var runFn = Run

// RunSweep executes every item and returns results in input order.
// Shareable items run first, packed Workers-wide; exclusive items
// then run one at a time with nothing else in flight. The error is
// the first per-item error in input order, if any; per-item errors
// do not stop the sweep.
func RunSweep(items []SweepItem, so SweepOptions) ([]SweepResult, error) {
	workers := so.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if so.Serial {
		workers = 1
	}

	sc := so.Obs.Scope("sweep")
	queueHist := sc.Histogram("queue_ns")
	runHist := sc.Histogram("run_ns")
	runsOK := sc.Counter("runs_ok")
	runsErr := sc.Counter("runs_err")
	runsDegraded := sc.Counter("runs_degraded")
	failScope := sc.Child("failures")

	results := make([]SweepResult, len(items))
	t0 := time.Now()

	runOne := func(i int) {
		it := items[i]
		r := &results[i]
		r.Opts = it.Opts
		r.Exclusive = it.Exclusive
		r.Queued = time.Since(t0)
		ts := time.Now()
		r.Result, r.Err = runFn(it.Opts)
		r.RunFor = time.Since(ts)
		queueHist.Observe(r.Queued.Nanoseconds())
		runHist.Observe(r.RunFor.Nanoseconds())
		if r.Err != nil {
			runsErr.Add(1)
		} else {
			runsOK.Add(1)
			// A run that completed but recorded iteration failures
			// (fault injection's partial results) is degraded, not
			// failed; its causes aggregate across the sweep.
			if r.Result != nil && r.Result.FailedIters > 0 {
				runsDegraded.Add(1)
				for cause, n := range r.Result.FailureCauses {
					failScope.Counter(cause).Add(int64(n))
				}
			}
		}
		sc.Child(it.Opts.RunLabel()).Gauge("run_ns").Set(r.RunFor.Nanoseconds())
	}

	// Phase 1: shareable runs pack onto the pool.
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i := range items {
		if items[i].Exclusive && !so.Serial {
			continue
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			runOne(i)
		}(i)
		if so.Serial {
			// One in flight at a time, in input order.
			wg.Wait()
		}
	}
	wg.Wait()

	// Phase 2: exclusive runs own the host, serially.
	if !so.Serial {
		for i := range items {
			if items[i].Exclusive {
				runOne(i)
			}
		}
	}

	wall := time.Since(t0)
	var serialWork time.Duration
	var firstErr error
	for i := range results {
		serialWork += results[i].RunFor
		if firstErr == nil && results[i].Err != nil {
			firstErr = results[i].Err
		}
	}
	sc.Gauge("wall_ns").Set(wall.Nanoseconds())
	sc.Gauge("serial_work_ns").Set(serialWork.Nanoseconds())
	saved := serialWork - wall
	if saved < 0 {
		saved = 0
	}
	sc.Gauge("saved_ns").Set(saved.Nanoseconds())
	return results, firstErr
}
