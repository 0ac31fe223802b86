package fanout

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// goid returns the running goroutine's id, from the "goroutine N ["
// header of its stack trace.
func goid() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return string(bytes.Fields(buf)[1])
}

// TestLowestError: with several failing indices the index and error
// returned are always those of the lowest one — what the serial loop
// reports — every index below it ran, and the workers stop taking
// indices once a call has failed instead of finishing the module.
func TestLowestError(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const n, lo, hi = 1 << 14, 37, 41
	for round := 0; round < 100; round++ {
		var ran [n]atomic.Bool
		// Whether a worker stopped cannot be observed from outside, only
		// that the range was not finished. Calls past the failures
		// therefore wait for the lowest failure and then a millisecond
		// more: finishing the range anyway would take the other workers
		// seconds, during which the failing worker only has to store a
		// flag. (Without the wait two workers can run the whole range
		// while the OS has the failing ones descheduled.)
		loFailed := make(chan struct{})
		at, err := Each(n, func() func(int) error {
			return func(i int) error {
				ran[i].Store(true)
				switch {
				case i == lo:
					close(loFailed)
					return fmt.Errorf("broken body %d", i)
				case i == hi:
					return fmt.Errorf("broken body %d", i)
				case i > hi:
					<-loFailed
					time.Sleep(time.Millisecond)
				}
				return nil
			}
		})
		if want := fmt.Sprintf("broken body %d", lo); at != lo || err == nil || err.Error() != want {
			t.Fatalf("round %d: got index %d and %v, want index %d and %q", round, at, err, lo, want)
		}
		for i := 0; i < lo; i++ {
			if !ran[i].Load() {
				t.Fatalf("round %d: index %d below the first failure never ran", round, i)
			}
		}
		if ran[n-1].Load() {
			t.Fatalf("round %d: all %d indices ran although %d and %d failed", round, n, lo, hi)
		}
	}
}

// TestByIndex: every index runs once and a result stored at its own
// position lands there, with and without workers; and what newWorker
// makes belongs to one worker — there are at most GOMAXPROCS of them,
// and a count kept in one without synchronization (-race fails this if
// two workers shared it) adds up to every index across them.
func TestByIndex(t *testing.T) {
	for _, procs := range []int{1, 4} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			var hits [1000]atomic.Int32
			var out [len(hits)]int
			at, err := Each(len(hits), func() func(int) error {
				return func(i int) error { hits[i].Add(1); out[i] = 3 * i; return nil }
			})
			if err != nil || at != len(hits) {
				t.Fatalf("GOMAXPROCS=%d: stopped at %d, err %v", procs, at, err)
			}
			for i := range hits {
				if got := hits[i].Load(); got != 1 || out[i] != 3*i {
					t.Fatalf("GOMAXPROCS=%d: index %d ran %d times, result %d", procs, i, got, out[i])
				}
			}

			var mu sync.Mutex
			var scratch []*int
			at, err = Each(len(hits), func() func(int) error {
				mine := new(int)
				mu.Lock()
				scratch = append(scratch, mine)
				mu.Unlock()
				return func(int) error { *mine++; return nil }
			})
			total := 0
			for _, p := range scratch {
				total += *p
			}
			if err != nil || at != len(hits) || len(scratch) > procs || total != len(hits) {
				t.Fatalf("GOMAXPROCS=%d: %d workers took %d of %d indices, err %v", procs, len(scratch), total, len(hits), err)
			}
		}()
	}
}

// TestInline: zero and one function never leave the caller's
// goroutine, whatever GOMAXPROCS is — a one-function kernel must not
// pay for workers it cannot use — and neither does any count when
// GOMAXPROCS is 1.
func TestInline(t *testing.T) {
	for _, c := range []struct{ procs, n int }{{4, 0}, {4, 1}, {1, 64}} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(c.procs))
			caller, calls, workers := goid(), 0, 0
			at, err := Each(c.n, func() func(int) error {
				workers++ // unsynchronized on purpose, as calls is
				return func(i int) error {
					calls++ // unsynchronized on purpose: -race fails this if a worker ran it
					if id := goid(); id != caller {
						t.Errorf("GOMAXPROCS=%d n=%d: index %d ran on goroutine %s, caller is %s", c.procs, c.n, i, id, caller)
					}
					return nil
				}
			})
			if err != nil || calls != c.n || at != c.n || workers != 1 {
				t.Errorf("GOMAXPROCS=%d n=%d: %d workers, %d calls, stopped at %d, err %v", c.procs, c.n, workers, calls, at, err)
			}
		}()
	}
}
