package harness

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"leapsandbounds/internal/isa"
	"leapsandbounds/internal/mem"
	"leapsandbounds/internal/workloads"
)

// stubRuns substitutes runFn with fn for the duration of the test.
func stubRuns(t *testing.T, fn func(Options) (*Result, error)) {
	t.Helper()
	old := runFn
	runFn = fn
	t.Cleanup(func() { runFn = old })
}

func sweepOpts(name string, threads int) Options {
	return Options{
		Engine:   EngineWAVM,
		Workload: workloads.Spec{Name: name},
		Strategy: mem.Trap,
		Profile:  isa.X86_64(),
		Threads:  threads,
	}
}

// TestRunSweepExclusivity checks the scheduling contract: shareable
// runs may overlap each other, but an exclusive run never overlaps
// anything.
func TestRunSweepExclusivity(t *testing.T) {
	var inFlight, maxShared atomic.Int64
	stubRuns(t, func(o Options) (*Result, error) {
		n := inFlight.Add(1)
		defer inFlight.Add(-1)
		if autoExclusive(o) {
			if n != 1 {
				t.Errorf("exclusive run %s overlapped %d other run(s)", o.Workload.Name, n-1)
			}
		} else {
			for {
				old := maxShared.Load()
				if n <= old || maxShared.CompareAndSwap(old, n) {
					break
				}
			}
		}
		time.Sleep(5 * time.Millisecond)
		return &Result{Workload: o.Workload.Name, Threads: o.Threads}, nil
	})

	var items []SweepItem
	for i := 0; i < 8; i++ {
		items = append(items, SweepItem{Opts: sweepOpts(fmt.Sprintf("share%d", i), 1)})
	}
	items = append(items,
		SweepItem{Opts: sweepOpts("excl0", 4), Exclusive: true},
		SweepItem{Opts: sweepOpts("excl1", 16), Exclusive: true})

	results, err := RunSweep(items, SweepOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(items) {
		t.Fatalf("%d results for %d items", len(results), len(items))
	}
	// Results stay in input order regardless of execution order.
	for i, r := range results {
		if r.Result == nil || r.Result.Workload != items[i].Opts.Workload.Name {
			t.Errorf("result %d is %+v, want workload %s", i, r.Result, items[i].Opts.Workload.Name)
		}
		if r.Exclusive != items[i].Exclusive {
			t.Errorf("result %d exclusive = %v, want %v", i, r.Exclusive, items[i].Exclusive)
		}
		if r.RunFor <= 0 {
			t.Errorf("result %d has no run time", i)
		}
	}
	if maxShared.Load() < 2 {
		t.Errorf("shareable runs never overlapped (max in flight %d); pool is not packing", maxShared.Load())
	}
}

// TestRunSweepSerial checks that Serial mode runs one item at a time
// in input order — the cold-baseline contract the cache benchmark's
// speedup is measured against.
func TestRunSweepSerial(t *testing.T) {
	var mu sync.Mutex
	var order []string
	var inFlight atomic.Int64
	stubRuns(t, func(o Options) (*Result, error) {
		if n := inFlight.Add(1); n != 1 {
			t.Errorf("serial sweep ran %d items at once", n)
		}
		defer inFlight.Add(-1)
		mu.Lock()
		order = append(order, o.Workload.Name)
		mu.Unlock()
		return &Result{Workload: o.Workload.Name}, nil
	})

	items := SweepOf(
		sweepOpts("a", 1), sweepOpts("b", 4), sweepOpts("c", 1))
	results, err := RunSweep(items, SweepOptions{Serial: true, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", "c"}
	for i, name := range want {
		if order[i] != name {
			t.Fatalf("execution order %v, want %v", order, want)
		}
		if results[i].Result.Workload != name {
			t.Fatalf("result order %d = %s, want %s", i, results[i].Result.Workload, name)
		}
	}
}

// TestRunSweepErrors checks that a failing item neither stops the
// sweep nor loses its slot, and that the first error (in input
// order) is returned.
func TestRunSweepErrors(t *testing.T) {
	boom := errors.New("boom")
	stubRuns(t, func(o Options) (*Result, error) {
		if o.Workload.Name == "bad" {
			return nil, boom
		}
		return &Result{Workload: o.Workload.Name}, nil
	})
	items := SweepOf(sweepOpts("ok0", 1), sweepOpts("bad", 1), sweepOpts("ok1", 1))
	results, err := RunSweep(items, SweepOptions{Workers: 2})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if results[0].Err != nil || results[2].Err != nil {
		t.Error("healthy items carried errors")
	}
	if results[1].Err == nil || results[1].Result != nil {
		t.Error("failing item should record its error and nil result")
	}
	if results[2].Result == nil {
		t.Error("item after the failure did not run")
	}
}

// TestAutoExclusive pins the taxonomy.
func TestAutoExclusive(t *testing.T) {
	if autoExclusive(Options{Threads: 1}) {
		t.Error("single-threaded run should be shareable")
	}
	if !autoExclusive(Options{Threads: 4}) {
		t.Error("multi-threaded run should be exclusive")
	}
	if !autoExclusive(Options{Threads: 1, Processes: 2}) {
		t.Error("multi-process run should be exclusive")
	}
}

// TestRunSweepReal runs a tiny real sweep end to end (no stub):
// results must match a direct harness.Run of the same options.
func TestRunSweepReal(t *testing.T) {
	wl, err := workloads.ByName("atax")
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{
		Engine: EngineWAVM, Workload: wl, Class: workloads.Test,
		Strategy: mem.Trap, Profile: isa.X86_64(), Warmup: 1, Measure: 2,
	}
	direct, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	results, err := RunSweep(SweepOf(opts, opts), SweepOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("item %d: %v", i, r.Err)
		}
		if r.Result.Checksum != direct.Checksum {
			t.Errorf("item %d checksum %#x, direct run %#x", i, r.Result.Checksum, direct.Checksum)
		}
	}
}
