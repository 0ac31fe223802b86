package compiled_test

import (
	"encoding/binary"
	"fmt"
	"testing"

	"leapsandbounds/internal/compiled"
	"leapsandbounds/internal/core"
	"leapsandbounds/internal/difftest"
	"leapsandbounds/internal/difftest/family"
	"leapsandbounds/internal/interp"
	"leapsandbounds/internal/mem"
	"leapsandbounds/internal/tiered"
	"leapsandbounds/internal/wasm"
	g "leapsandbounds/internal/wasmgen"
)

// The engines the differentials run on. interp is the interpreter that
// honours every strategy and runs no rir pass; wasm3 is the same
// interpreter pinned to trap, as real wasm3 has no other strategy, so
// it joins only rows whose strategies all agree.
var (
	wavm        = difftest.Engine{Name: "wavm", New: func(testing.TB) core.Engine { return compiled.NewWAVM() }}
	wavmNoElide = difftest.Engine{Name: "wavm-noelide", New: func(testing.TB) core.Engine {
		e := compiled.NewWAVM()
		if err := e.SetElision(false); err != nil {
			panic(err)
		}
		return e
	}}
	wasmtime    = difftest.Engine{Name: "wasmtime", New: func(testing.TB) core.Engine { return compiled.NewWasmtime() }}
	interpreter = difftest.Engine{Name: "interp", New: func(testing.TB) core.Engine { return interp.NewConfigurable() }}
	wasm3       = difftest.Engine{Name: "wasm3", New: func(testing.TB) core.Engine { return interp.NewWasm3() }}
	v8          = difftest.Engine{Name: "v8", New: func(tb testing.TB) core.Engine {
		e := tiered.New()
		tb.Cleanup(e.Close)
		return e
	}}
)

// The compiled pipelines' equivalence net is two sets over the three
// pipelines that ship and the interpreter, and so holds all four to one
// outcome.
// rirSet checks wasmtime and wavm against the interpreter, the
// reference that runs no rir pass at all: it catches an optimizer bug
// (a stale local copy, a wrongly forwarded producer), which both
// compiled engines share, and wavm against wasmtime catches a lowering
// or pairing bug (a renumbered address operand, a fused pair that skips
// its intermediate register write). elidePair checks wavm against
// wavm-noelide, elision on the pipeline that ships: an over-eager hoist
// that widened a check would fault at a different address or earlier
// than the per-access schedule.
var (
	rirSet     = []difftest.Engine{interpreter, wasmtime, wavm}
	elidePair  = []difftest.Engine{wavmNoElide, wavm}
	allEngines = []difftest.Engine{wavm, wasmtime, interpreter, v8}
	hostSet    = append([]difftest.Engine{wasm3}, allEngines...)
)

// A row is one named subtest: a module, built in the subtest, that
// engines run under rule.
type row struct {
	name  string
	build func() (*wasm.Module, error)
	rule  difftest.Rule
	// traps is "yes" or "no" when the program fixes whether trap traps.
	traps string
}

// seeded returns the rows of seeds 1..n (n/5 under -short) of fams,
// named family/seed=N, or seed=N for one family.
func seeded(n int, fams ...family.Family) []row {
	if testing.Short() {
		n /= 5
	}
	var rows []row
	for seed := int64(1); seed <= int64(n); seed++ {
		for _, f := range fams {
			name := fmt.Sprintf("seed=%d", seed)
			if len(fams) > 1 {
				name = f.Name + "/" + name
			}
			rows = append(rows, row{name, func() (*wasm.Module, error) { return f.Build(seed) }, f.Rule, ""})
		}
	}
	return rows
}

// checkRows runs each row as a parallel subtest over engines.
func checkRows(t *testing.T, engines []difftest.Engine, rows []row) {
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			t.Parallel()
			m, err := r.build()
			if err != nil {
				t.Fatalf("generator produced invalid module: %v", err)
			}
			outs := difftest.Check(t, difftest.Row{Module: m, Engines: engines, Rule: r.rule})
			if r.traps != "" && outs[mem.Trap].Trapped != (r.traps == "yes") {
				t.Errorf("trap trapped=%v, the program fixes %s", outs[mem.Trap].Trapped, r.traps)
			}
		})
	}
}

func TestDifferentialRIR(t *testing.T)   { checkRows(t, rirSet, seeded(25, family.Programs...)) }
func TestDifferentialElide(t *testing.T) { checkRows(t, elidePair, seeded(25, family.Programs...)) }

// TestDifferentialFork holds the in-bounds random kernels and their
// boundary-straddling OOB variants on every engine; Check's fork axis
// holds each template fork to a fresh instance, down to the faulting
// offset and the final memory bytes.
func TestDifferentialFork(t *testing.T) {
	checkRows(t, allEngines, seeded(25, family.Programs[:2]...))
}

// TestDifferentialRandomPrograms is the broadest net over the two
// execution backends and the optimizer: random programs on wasm3,
// wasmtime and wavm, every strategy agreeing exactly.
func TestDifferentialRandomPrograms(t *testing.T) {
	checkRows(t, []difftest.Engine{wasm3, wasmtime, wavm}, seeded(40, family.Programs[0]))
}

// TestDifferentialOOBTrapEquivalence runs programs whose memory traffic
// straddles the bounds-check boundary on the compiled, interpreted and
// tiered engines, partitioned by the paper's semantics (Partition):
// the edge programs (family.Edges) and the OOB family.
func TestDifferentialOOBTrapEquivalence(t *testing.T) {
	var rows []row
	for _, e := range family.Edges {
		rows = append(rows, row{e.Name, e.Build, difftest.Partition, e.Traps})
	}
	checkRows(t, []difftest.Engine{wavm, interpreter, v8}, append(rows, seeded(30, family.Programs[1])...))
}

// TestClampRedirectSemantics pins clamp's defined behaviour exactly:
// an out-of-bounds n-byte access is redirected to sizeBytes-n, for
// stores and loads alike, on every engine.
func TestClampRedirectSemantics(t *testing.T) {
	const marker = int64(0x5ca1ab1e)
	mb := g.NewModule()
	mb.Memory(1, 4)
	arr := g.NewLayout(0).I64(1) // base 0, element size 8
	f := mb.Func("run", wasm.I64)
	// Store OOB at byte 160000 → redirected to 65528 (= 65536-8).
	// Load in-bounds from 65528, then load OOB from 240000 (also
	// redirected to 65528): both must observe the marker.
	f.Body(
		arr.Store(g.I32(20000), g.I64(marker)),
		g.Return(g.Add(arr.Load(g.I32(65528/8)), g.Mul(arr.Load(g.I32(30000)), g.I64(31)))),
	)
	mb.Export("run", f)
	m, err := mb.Module()
	if err != nil {
		t.Fatal(err)
	}
	image := make([]byte, 65536)
	binary.LittleEndian.PutUint64(image[65528:], uint64(marker))
	want := difftest.Outcome{Digest: uint64(marker + marker*31), MemHash: difftest.Hash(image)}
	difftest.Check(t, difftest.Row{Module: m, Engines: allEngines, Rule: difftest.Fixed(want), Strategies: []mem.Strategy{mem.Clamp}})
}

// FuzzDiff is the differential fuzz target: its input picks a program
// family, run on the interpreter and every compiled pipeline, or a host
// iovec scenario, run on every engine (family.Fuzz). FuzzRIRDiff and
// FuzzElideDiff keep their program seeds on their own engine sets.
func FuzzDiff(f *testing.F) {
	family.Fuzz(f, []difftest.Engine{interpreter, wasmtime, wavm, wavmNoElide}, hostSet)
}
func FuzzRIRDiff(f *testing.F)   { family.Fuzz(f, rirSet, nil) }
func FuzzElideDiff(f *testing.F) { family.Fuzz(f, elidePair, nil) }
