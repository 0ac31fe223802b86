// Package fanout is the per-function fan-out of a cold start: the
// decoder, the validator and the engines each have one job per function
// body, independent of every other body, and run it through here. It
// imports nothing of the repository, so every layer can use it.
package fanout

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Each calls f(i) for every index i in [0, n) on min(GOMAXPROCS, n)
// workers, where each worker gets its f from its own call of newWorker:
// what newWorker allocates is that worker's scratch, reused across the
// indices it takes and shared with nobody. The caller is one of the
// workers, so with one worker (or one index) no goroutine starts and
// Each is the plain loop. Workers take indices in increasing order and
// stop taking new ones once any call has failed, so the indices that
// ran are always a prefix of [0, n) and what Each returns — the lowest
// failing index and its error, untouched, for the caller to put into
// its own words — is what a serial loop would have stopped at. With no
// failure it returns (n, nil).
func Each(n int, newWorker func() func(i int) error) (int, error) {
	var (
		next     atomic.Int64
		failed   atomic.Bool
		mu       sync.Mutex // guards firstIdx, firstErr
		firstIdx = n
		firstErr error
		wg       sync.WaitGroup
	)
	work := func() {
		defer wg.Done()
		f := newWorker()
		for !failed.Load() {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if err := f(i); err != nil {
				failed.Store(true)
				mu.Lock()
				if i < firstIdx {
					firstIdx, firstErr = i, err
				}
				mu.Unlock()
				return
			}
		}
	}
	workers := max(1, min(runtime.GOMAXPROCS(0), n))
	wg.Add(workers)
	for w := 1; w < workers; w++ {
		go work()
	}
	work()
	wg.Wait()
	return firstIdx, firstErr
}

// Map is Each for a job that needs no scratch and has a result: it
// returns out with out[i] = f(i). Results land by index, never by
// completion order: that is what makes a compiled module independent
// of the worker count. On failure out is nil.
func Map[T any](n int, f func(i int) (T, error)) ([]T, int, error) {
	out := make([]T, n)
	i, err := Each(n, func() func(int) error {
		return func(i int) (err error) {
			out[i], err = f(i)
			return err
		}
	})
	if err != nil {
		return nil, i, err
	}
	return out, n, nil
}
