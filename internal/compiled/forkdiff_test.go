package compiled_test

import (
	"errors"
	"fmt"
	"hash/fnv"
	"testing"

	"leapsandbounds/internal/compiled"
	"leapsandbounds/internal/core"
	"leapsandbounds/internal/isa"
	"leapsandbounds/internal/mem"
	"leapsandbounds/internal/trap"
	"leapsandbounds/internal/wasm"
)

// forkOutcome is everything a CoW fork must preserve relative to a
// fresh instantiation: the result digest, the exact trap cause when
// the program faults, and a byte hash of the final memory image
// (which pins partial writes before a trap too).
type forkOutcome struct {
	trapped bool
	kind    trap.Kind
	detail  string
	digest  uint64
	memHash uint64
}

// runOn executes run() on inst and folds the outcome (including the
// final memory image) into a forkOutcome.
func runOn(tb testing.TB, inst core.Instance, label string) forkOutcome {
	tb.Helper()
	res, err := inst.Invoke("run")
	var o forkOutcome
	if err != nil {
		var tr *trap.Trap
		if !errors.As(err, &tr) {
			tb.Fatalf("%s: non-trap failure: %v", label, err)
		}
		o = forkOutcome{trapped: true, kind: tr.Kind, detail: tr.Detail}
	} else {
		o = forkOutcome{digest: res[0]}
	}
	if m := inst.Memory(); m != nil {
		h := fnv.New64a()
		h.Write(m.Bytes(0, m.SizeBytes(), false))
		o.memHash = h.Sum64()
	}
	return o
}

// checkForkEquivalence instantiates m fresh and via a template fork
// under every strategy and requires bit-identical outcomes. The
// template is snapshotted from a freshly-instantiated donor (nil
// warm function), so the two arms start from provably equal state and
// any divergence indicts the snapshot/fork path: a page the fork
// failed to duplicate, a protection layout that moved a trap, a
// global or table entry lost in restore.
func checkForkEquivalence(tb testing.TB, m *wasm.Module) {
	tb.Helper()
	eng := compiled.NewWAVM()
	eng.SetCache(nil)
	cm, err := eng.Compile(m)
	if err != nil {
		tb.Fatal(err)
	}
	for _, s := range mem.Strategies() {
		cfg := core.Config{Profile: isa.X86_64(), Strategy: s}

		fresh, err := cm.Instantiate(cfg, nil)
		if err != nil {
			tb.Fatalf("%v: fresh instantiate: %v", s, err)
		}
		freshOut := runOn(tb, fresh, fmt.Sprintf("%v/fresh", s))
		fresh.Close()

		tpl, err := core.NewTemplate(cm, cfg, nil, nil)
		if err != nil {
			tb.Fatalf("%v: template: %v", s, err)
		}
		fork, err := tpl.Fork()
		if err != nil {
			tb.Fatalf("%v: fork: %v", s, err)
		}
		forkOut := runOn(tb, fork, fmt.Sprintf("%v/fork", s))
		fork.Close()

		if freshOut != forkOut {
			tb.Errorf("%v: fresh %+v, fork %+v", s, freshOut, forkOut)
		}
	}
}

// TestDifferentialFork is the fork path's equivalence net (wired into
// scripts/verify.sh): every generated program — in-bounds random
// kernels and boundary-straddling OOB variants — must behave
// identically on a CoW fork and on a fresh instantiation under all
// five strategies, down to the trap kind, the faulting offset, and
// the final memory bytes.
func TestDifferentialFork(t *testing.T) {
	seeds := 25
	if testing.Short() {
		seeds = 5
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("random/seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			m, err := buildRandomProgram(seed)
			if err != nil {
				t.Fatalf("generator produced invalid module: %v", err)
			}
			checkForkEquivalence(t, m)
		})
		t.Run(fmt.Sprintf("oob/seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			m, err := buildOOBProgram(seed)
			if err != nil {
				t.Fatalf("generator produced invalid module: %v", err)
			}
			checkForkEquivalence(t, m)
		})
	}
}
