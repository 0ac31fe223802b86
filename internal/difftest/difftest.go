// Package difftest is the differential harness: it runs one module on
// several engines, under every bounds strategy, on fresh instances and
// template forks, with and without cycle counting, and holds every run
// to one Outcome. It imports no engine package: a Row names the
// engines it runs on, so an engine's own tests can use it.
package difftest

import (
	"errors"
	"fmt"
	"hash/maphash"
	"testing"
	"time"

	"leapsandbounds/internal/core"
	"leapsandbounds/internal/trap"
)

// Outcome is everything a run must keep identical wherever it agrees:
// whether it trapped, the trap's kind and detail (which carries the
// faulting address and access size), a digest of every call's results,
// a hash of the final memory image and one of the file the host side
// kept.
type Outcome struct {
	Trapped bool
	Kind    trap.Kind
	Detail  string
	// Digest folds every call's results, and every trap's kind and
	// detail, in call order; one call with one result digests to it.
	Digest uint64
	// MemHash hashes the memory image; 0 with no memory.
	MemHash uint64
	// FileHash hashes Env.File's image; 0 with no file.
	FileHash uint64
}

func (o Outcome) String() string {
	s := fmt.Sprintf("digest %#x, memory %#x, file %#x", o.Digest, o.MemHash, o.FileHash)
	if o.Trapped {
		s = fmt.Sprintf("trap %q (%s), %s", o.Kind, o.Detail, s)
	}
	return s
}

// A Call is one exported function and its arguments.
type Call struct {
	Export string
	Args   []uint64
}

// runCall is the call a row makes when it names none.
var runCall = Call{Export: "run"}

// Env is one instance's host side: its imports, and what it leaves
// behind (nil File: nothing).
type Env struct {
	Imports core.Imports
	File    func() []byte
}

// deadline bounds one guest call. A call takes milliseconds; a guest
// that loops for ever would otherwise fail only at go test's own
// timeout, naming nothing. It is a liveness bound, not a timing
// assertion.
const deadline = 2 * time.Minute

// invokeBounded is inst.Invoke(c.Export, c.Args...), except that it
// fails tb, naming the call and label, if no result comes within
// deadline. The hung call's goroutine runs on, so an instance whose
// memory it may touch must not be closed after such a failure: close
// it only once invokeBounded has returned.
func invokeBounded(tb testing.TB, inst core.Instance, label string, c Call) ([]uint64, error) {
	tb.Helper()
	type result struct {
		res []uint64
		err error
	}
	done := make(chan result, 1)
	go func() {
		res, err := inst.Invoke(c.Export, c.Args...)
		done <- result{res, err}
	}()
	timer := time.NewTimer(deadline)
	defer timer.Stop()
	select {
	case r := <-done:
		return r.res, r.err
	case <-timer.C:
		tb.Fatalf("%s: %s%v: no result after %v, an endless guest loop", label, c.Export, c.Args, deadline)
		return nil, nil
	}
}

// Run makes calls on inst in order, each through invokeBounded, and
// returns their Outcome (with no file image: Check adds it). A failure
// that is not a trap fails tb. It does not close inst.
func Run(tb testing.TB, inst core.Instance, label string, calls ...Call) Outcome {
	tb.Helper()
	var o Outcome
	mix := func(v uint64) { o.Digest = o.Digest*1099511628211 + v }
	for _, c := range calls {
		res, err := invokeBounded(tb, inst, label, c)
		if err != nil {
			var tr *trap.Trap
			if !errors.As(err, &tr) {
				tb.Fatalf("%s: %s%v: non-trap failure: %v", label, c.Export, c.Args, err)
			}
			if !o.Trapped {
				o.Trapped, o.Kind, o.Detail = true, tr.Kind, tr.Detail
			}
			mix(uint64(tr.Kind))
			mix(Hash([]byte(tr.Detail)))
			continue
		}
		for _, v := range res {
			mix(v)
		}
	}
	if m := inst.Memory(); m != nil {
		o.MemHash = Hash(m.Bytes(0, m.SizeBytes(), false))
	}
	return o
}

// seed keys Hash for this process.
var seed = maphash.MakeSeed()

// Hash hashes b, every byte of it, so an image grown by zero pages
// hashes differently. Hashes compare within one process only.
func Hash(b []byte) uint64 { return maphash.Bytes(seed, b) }
