package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// CompileFuncs is the engines' per-function compile fan-out: it
// returns out with out[i] = f(i) for every function index i in [0, n),
// running f on min(GOMAXPROCS, n) workers. The caller is one of them,
// so with one worker (or one function) no goroutine starts. Results
// land by index, never by completion order: that is what makes the
// compiled module independent of the worker count. Workers take
// indices in increasing order and stop taking new ones once any call
// has failed, so the indices that ran are always a prefix of [0, n)
// and the error returned — "<what> <i>: <err>" for the lowest failing
// i — is the one a serial loop would have stopped at.
func CompileFuncs[T any](n int, what string, f func(i int) (T, error)) ([]T, error) {
	var (
		out      = make([]T, n)
		next     atomic.Int64
		failed   atomic.Bool
		mu       sync.Mutex // guards firstIdx, firstErr
		firstIdx = n
		firstErr error
		wg       sync.WaitGroup
	)
	work := func() {
		defer wg.Done()
		for !failed.Load() {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			var err error
			if out[i], err = f(i); err != nil {
				failed.Store(true)
				mu.Lock()
				if i < firstIdx {
					firstIdx, firstErr = i, fmt.Errorf("%s %d: %w", what, i, err)
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
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}
