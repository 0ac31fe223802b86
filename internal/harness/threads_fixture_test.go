// Shared-memory grow-under-traffic: the fixture behind the shared
// differential tests and FuzzSharedGrowDiff. Where Run gives each
// worker a private memory, RunShared builds the wasm-threads topology
// the paper's §4.2 contention analysis points at: one shared linear
// memory, N worker threads invoking into it concurrently, and a grower
// thread expanding it on a cadence.
//
// Every grow moves the memory end, and the workload's tail writes
// chase it onto the youngest page, so each strategy's grow protocol
// runs under live traffic: mprotect remaps under the address space's
// mmap lock while sibling faults queue behind it (the vma_lock_wait
// the span tracer attributes), uffd registers the new pages and
// populates lock-free, and the flat strategies commit before the new
// length is published.
//
// It checks every lane's result against the native twin and reports
// counts, not timings: on a time-sliced host an invoke's latency under
// a racing grower measures the scheduler (DESIGN §16).
package harness

import (
	"fmt"
	"sync"
	"time"

	"leapsandbounds/internal/core"
	"leapsandbounds/internal/isa"
	"leapsandbounds/internal/mem"
	"leapsandbounds/internal/obs"
	"leapsandbounds/internal/vmm"
	"leapsandbounds/internal/wasm"
	"leapsandbounds/internal/workloads"
)

// ThreadsOptions configures one shared-memory run (one strategy) on
// the wavm engine and the x86-64 profile.
type ThreadsOptions struct {
	Strategy mem.Strategy
	Class    workloads.Class
	// Workers overrides the workload geometry's lane count; 0 uses
	// SharedShape(Class).Workers. The module is built for the
	// geometry's lanes, so Workers must not exceed it.
	Workers int
	// Rounds per work() invocation; 0 uses the geometry's Rounds.
	Rounds int
	// Invokes per worker; defaults to 32.
	Invokes int
	// GrowEvery is the grower thread's cadence; defaults to 200µs.
	// The grower stops when the memory reaches its max or the workers
	// finish.
	GrowEvery time.Duration
	// Obs receives the run's telemetry under one "threads[...]"
	// scope. Nil leaves the run unobserved.
	Obs *obs.Registry
	// Module replaces the shared-grow workload's module (same memory
	// limits, same work(worker, rounds) export); nil builds the
	// workload's.
	Module *wasm.Module
}

func (o ThreadsOptions) label() string {
	return fmt.Sprintf("threads[engine=%s workload=shared-grow strategy=%s workers=%d]",
		EngineWAVM, o.Strategy, o.Workers)
}

// ThreadsResult is one strategy's outcome.
type ThreadsResult struct {
	// Workers is the lane count the run used (the option, or the
	// geometry's default).
	Workers int

	// Digest is the cross-lane checksum (sum of per-lane work()
	// results); DigestOK pins it against the native twin. Engines and
	// strategies must all agree byte-for-byte.
	Digest   uint64
	DigestOK bool
}

// RunShared executes one shared-memory configuration.
func RunShared(opts ThreadsOptions) (*ThreadsResult, error) {
	profile := isa.X86_64()
	geo := workloads.SharedShape(opts.Class)
	if opts.Workers <= 0 {
		opts.Workers = geo.Workers
	}
	if opts.Workers > geo.Workers {
		return nil, fmt.Errorf("harness: %d workers exceed the workload's %d lanes", opts.Workers, geo.Workers)
	}
	if opts.Rounds <= 0 {
		opts.Rounds = geo.Rounds
	}
	if opts.Invokes <= 0 {
		opts.Invokes = 32
	}
	if opts.GrowEvery <= 0 {
		opts.GrowEvery = 200 * time.Microsecond
	}

	module := opts.Module
	if module == nil {
		spec, err := workloads.ByName("shared-grow")
		if err != nil {
			return nil, err
		}
		if module, _, err = spec.BuildChecked(opts.Class); err != nil {
			return nil, err
		}
	}

	runScope := opts.Obs.Scope(opts.label())
	runSpan := runScope.StartSpan(obs.SpanRun, obs.SpanRef{})
	defer runSpan.End()

	as := vmm.NewObserved(profile.VM, runScope.Child("vmm"))
	var pool *mem.ArenaPool
	if opts.Strategy == mem.Uffd {
		pool = mem.NewArenaPool()
		defer pool.Drain()
	}

	eng, cleanup, err := NewEngine(EngineWAVM)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	cm, err := eng.Compile(module)
	if err != nil {
		return nil, fmt.Errorf("harness: compile shared-grow: %w", err)
	}

	cfg := core.Config{
		Strategy: opts.Strategy,
		Profile:  profile,
		AS:       as,
		Pool:     pool,
		Obs:      runScope.Child("engine"),
		Span:     runSpan.Ref(),
	}
	shm, err := core.NewSharedMemory(module, cfg)
	if err != nil {
		return nil, err
	}
	defer shm.Close()
	// Grow and fault work on the shared memory attributes to the run
	// span (instances never re-parent an attached shared memory).
	shm.SetSpanParent(runSpan.Ref())
	cfg.SharedMem = shm

	// Attach every worker before any traffic: instantiation
	// (re)initializes data segments on the shared memory.
	insts := make([]core.Instance, opts.Workers)
	for w := range insts {
		inst, err := cm.Instantiate(cfg, nil)
		if err != nil {
			for _, prev := range insts[:w] {
				prev.Close()
			}
			return nil, err
		}
		insts[w] = inst
	}
	defer func() {
		for _, inst := range insts {
			inst.Close()
		}
	}()

	type lane struct {
		sum uint64
		err error
	}
	lanes := make([]lane, opts.Workers)

	var (
		start    = make(chan struct{})
		done     = make(chan struct{})
		finished sync.WaitGroup
	)

	// Grower: expand the shared memory on a cadence until the workers
	// finish; grows refused at the memory's max are expected (the
	// cadence outlives the headroom).
	growerDone := make(chan struct{})
	go func() {
		defer close(growerDone)
		ticker := time.NewTicker(opts.GrowEvery)
		defer ticker.Stop()
		<-start
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
				shm.Grow(1)
			}
		}
	}()

	wantLane := make([]uint64, opts.Workers)
	var wantDigest uint64
	for w := range wantLane {
		wantLane[w] = workloads.SharedWorkNative(opts.Class, w, opts.Rounds)
		wantDigest += wantLane[w]
	}

	finished.Add(opts.Workers)
	for w := 0; w < opts.Workers; w++ {
		go func(w int) {
			defer finished.Done()
			l := &lanes[w]
			<-start
			for k := 0; k < opts.Invokes; k++ {
				out, err := insts[w].Invoke("work", uint64(w), uint64(opts.Rounds))
				if err != nil {
					l.err = fmt.Errorf("worker %d invoke %d: %w", w, k, err)
					return
				}
				if len(out) != 1 || out[0] != wantLane[w] {
					l.err = fmt.Errorf("worker %d invoke %d: lane results %#x, want [%#x]", w, k, out, wantLane[w])
					return
				}
				l.sum = out[0]
			}
		}(w)
	}

	close(start)
	finished.Wait()
	close(done)
	<-growerDone

	var digest uint64
	for w := range lanes {
		if lanes[w].err != nil {
			return nil, lanes[w].err
		}
		digest += lanes[w].sum
	}

	if opts.Strategy == mem.Uffd {
		mem.SharedPool(as).Drain()
	}
	return &ThreadsResult{Workers: opts.Workers, Digest: digest, DigestOK: digest == wantDigest}, nil
}
