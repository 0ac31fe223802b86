package compiled_test

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"leapsandbounds/internal/compiled"
	"leapsandbounds/internal/core"
	"leapsandbounds/internal/interp"
	"leapsandbounds/internal/isa"
	"leapsandbounds/internal/mem"
	"leapsandbounds/internal/rir"
	"leapsandbounds/internal/trap"
	"leapsandbounds/internal/wasm"
)

// outcome captures everything a compile pipeline must preserve:
// whether the run trapped, the exact trap cause (kind plus the detail
// string, which carries the faulting address and access size), and the
// result digest.
type outcome struct {
	trapped bool
	kind    trap.Kind
	detail  string
	digest  uint64
}

// runOutcome instantiates cm under s and executes run().
func runOutcome(tb testing.TB, cm core.CompiledModule, s mem.Strategy) outcome {
	tb.Helper()
	inst, err := cm.Instantiate(core.Config{Profile: isa.X86_64(), Strategy: s}, nil)
	if err != nil {
		tb.Fatalf("%v: %v", s, err)
	}
	res, ierr := inst.Invoke("run")
	inst.Close()
	if ierr != nil {
		var tr *trap.Trap
		if !errors.As(ierr, &tr) {
			tb.Fatalf("%v: non-trap failure: %v", s, ierr)
		}
		return outcome{trapped: true, kind: tr.Kind, detail: tr.Detail}
	}
	return outcome{digest: res[0]}
}

// pipelineEngine returns a fresh engine for a pipeline name: one of
// compiledEngines, or "interp", the interpreter that honours every
// strategy and runs no rir pass.
func pipelineEngine(name string) core.Engine {
	if name == "interp" {
		return interp.NewConfigurable()
	}
	for _, c := range compiledEngines {
		if c.name == name {
			return c.mk()
		}
	}
	return nil
}

// checkPipelines compiles m on the named pipelines (cache-detached)
// and requires bit-identical outcomes from all of them under all five
// strategies: the same digest when the run completes, and the same
// trap kind and detail (faulting address + access size) when it
// doesn't.
func checkPipelines(tb testing.TB, m *wasm.Module, names ...string) {
	tb.Helper()
	mods := make([]core.CompiledModule, len(names))
	for i, name := range names {
		eng := pipelineEngine(name)
		if eng == nil {
			tb.Fatalf("no pipeline named %q", name)
		}
		eng.SetCache(nil)
		cm, err := eng.Compile(m)
		if err != nil {
			tb.Fatalf("%s: %v", name, err)
		}
		mods[i] = cm
	}
	for _, s := range mem.Strategies() {
		outs := make([]outcome, len(mods))
		same := true
		for i, cm := range mods {
			outs[i] = runOutcome(tb, cm, s)
			same = same && outs[i] == outs[0]
		}
		if !same {
			var b strings.Builder
			for i, name := range names {
				fmt.Fprintf(&b, " %s %+v", name, outs[i])
			}
			tb.Errorf("%v: pipelines disagree:%s", s, b.String())
		}
	}
}

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
	rirSet    = []string{"interp", "wasmtime", "wavm"}
	elidePair = []string{"wavm-noelide", "wavm"}
)

// generators are the program families the differentials draw from:
// the in-bounds random kernels, the boundary-straddling OOB variants,
// both again with linear indexes in loops, which elision versions, and
// the stale local copies of genCopyProgram.
var generators = []struct {
	name  string
	build func(seed int64) (*wasm.Module, error)
}{
	{"random", buildRandomProgram},
	{"oob", buildOOBProgram},
	{"linear", func(seed int64) (*wasm.Module, error) { return genProgram(seed, false, true) }},
	{"linear-oob", func(seed int64) (*wasm.Module, error) { return genProgram(seed, true, true) }},
	{"copies", genCopyProgram},
}

// genCopyProgram returns a straight-line run() over four i32 locals
// that leaves a local's old value on the stack while it writes the
// local, which the DSL's expression trees never do: by local.tee, by
// local.set of another local, and by local.set of an ALU result (which
// the optimizer forwards into the producer). The old value is then
// combined with the new one. An optimizer that kept treating the stale
// copy as the local would read the new value twice; the digest of the
// locals, mixed after every snippet, tells.
func genCopyProgram(seed int64) (*wasm.Module, error) {
	r := rand.New(rand.NewSource(seed))
	const n, digest = 4, 4 // i32 locals 0..3, the i64 digest in local 4
	ops := []wasm.Opcode{wasm.OpI32Add, wasm.OpI32Sub, wasm.OpI32Xor, wasm.OpI32Mul}
	local := func() uint64 { return uint64(r.Intn(n)) }
	k := func() wasm.Instr { return ri(wasm.OpI32Const, uint64(r.Int31())|1) }
	op := func() wasm.Instr { return ri(ops[r.Intn(len(ops))]) }
	var body []wasm.Instr
	for i := range uint64(n) {
		body = append(body, k(), ri(wasm.OpLocalSet, i))
	}
	for range 24 {
		x, z := local(), local()
		body = append(body, ri(wasm.OpLocalGet, x))
		switch r.Intn(3) {
		case 0: // old x, then x = k by tee
			body = append(body, k(), ri(wasm.OpLocalTee, x))
		case 1: // old x, then x = y, then k
			body = append(body, ri(wasm.OpLocalGet, local()), ri(wasm.OpLocalSet, x), k())
		default: // old x, then x = y op k, then x
			body = append(body, ri(wasm.OpLocalGet, local()), k(), op(), ri(wasm.OpLocalSet, x), ri(wasm.OpLocalGet, x))
		}
		body = append(body, op(), ri(wasm.OpLocalSet, z))
		for i := range uint64(n) {
			body = append(body,
				ri(wasm.OpLocalGet, digest), ri(wasm.OpI64Const, 1099511628211), ri(wasm.OpI64Mul),
				ri(wasm.OpLocalGet, i), ri(wasm.OpI64ExtendI32U), ri(wasm.OpI64Add),
				ri(wasm.OpLocalSet, digest))
		}
	}
	body = append(body, ri(wasm.OpLocalGet, digest))
	m := rawModule(nil, []wasm.ValueType{wasm.I64},
		[]wasm.ValueType{wasm.I32, wasm.I32, wasm.I32, wasm.I32, wasm.I64}, body...)
	m.Exports[0].Name = "run"
	return m, nil
}

// differential runs checkPipelines over every generated program, seeds
// 1..25 (1..5 under -short) of each generator.
func differential(t *testing.T, names ...string) {
	seeds := 25
	if testing.Short() {
		seeds = 5
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		for _, gen := range generators {
			t.Run(fmt.Sprintf("%s/seed=%d", gen.name, seed), func(t *testing.T) {
				t.Parallel()
				m, err := gen.build(seed)
				if err != nil {
					t.Fatalf("generator produced invalid module: %v", err)
				}
				checkPipelines(t, m, names...)
			})
		}
	}
}

// fuzzDifferential drives checkPipelines from the fuzzer: the seed
// picks the generated program, the flags genProgram's generator.
func fuzzDifferential(f *testing.F, names ...string) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(seed, false, false)
		f.Add(seed, true, false)
	}
	for _, seed := range latchSeeds {
		f.Add(seed, false, true)
		f.Add(seed, true, true)
	}
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(seed, false, true)
		f.Add(seed, true, true)
	}
	f.Fuzz(func(t *testing.T, seed int64, oob, linear bool) {
		m, err := genProgram(seed, oob, linear)
		if err != nil {
			t.Skip() // generator rejects some degenerate seeds
		}
		checkPipelines(t, m, names...)
	})
}

func TestDifferentialRIR(t *testing.T)   { differential(t, rirSet...) }
func TestDifferentialElide(t *testing.T) { differential(t, elidePair...) }
func FuzzRIRDiff(f *testing.F)           { fuzzDifferential(f, rirSet...) }
func FuzzElideDiff(f *testing.F)         { fuzzDifferential(f, elidePair...) }

// latchSeeds generate, with linear indexes, programs with nested
// counted loops that elision versions, so their back-edges become
// two-target latches whose exit is not the next pc (the slow clone sits
// in between), inside an outer loop that has a latch of its own: the
// shape the late pass's jump threading and the second branch target
// exist for.
var latchSeeds = []int64{5, 10}

// TestLatchSeedsNestFarExits keeps latchSeeds honest against drift in
// the program generator.
func TestLatchSeedsNestFarExits(t *testing.T) {
	for _, seed := range latchSeeds {
		m, err := genProgram(seed, false, true)
		if err != nil {
			t.Fatal(err)
		}
		_, f, err := compiled.NewWAVM().EmittedIR(m, 0)
		if err != nil {
			t.Fatal(err)
		}
		type latch struct {
			pc, head int
			far      bool // the exit is not the next pc
		}
		var latches []latch
		for pc := range f.Code {
			s := &f.Code[pc]
			if (s.Shape != rir.ShCmpBranch && s.Shape != rir.ShPairBr) || !s.Has(rir.HasElse) {
				continue
			}
			head, exit := int(s.Else), int(s.Tgt)
			if head > pc {
				head, exit = exit, head
			}
			if head <= pc {
				latches = append(latches, latch{pc, head, exit != pc+1})
			}
		}
		nested := 0
		for _, o := range latches {
			for _, i := range latches {
				if i.far && o.head < i.head && i.pc < o.pc {
					nested++
				}
			}
		}
		if nested == 0 {
			t.Errorf("seed %d: %d latches, none with a far exit nested in another's loop", seed, len(latches))
		}
	}
}

// TestRIRLoweringShrinksOps pins the tier's reason to exist: for a
// loop-heavy kernel the lowered op stream must be strictly shorter
// than the stack-shaped input, registers must be allocated, and at
// least one superinstruction must form. Counter deltas are measured
// around one uncached compile.
func TestRIRLoweringShrinksOps(t *testing.T) {
	m, err := buildRandomProgram(7)
	if err != nil {
		t.Fatal(err)
	}
	before := rir.Stats()
	eng := compiled.NewWAVM()
	eng.SetCache(nil)
	if _, err := eng.Compile(m); err != nil {
		t.Fatal(err)
	}
	after := rir.Stats()
	opsIn := after.OpsIn - before.OpsIn
	opsOut := after.OpsOut - before.OpsOut
	regs := after.RegsAllocated - before.RegsAllocated
	if opsIn == 0 {
		t.Fatal("lowering pipeline did not run (ops_in delta is zero)")
	}
	if opsOut >= opsIn {
		t.Errorf("lowering did not shrink the op stream: ops_in=%d ops_out=%d", opsIn, opsOut)
	}
	if regs == 0 {
		t.Error("no virtual registers allocated")
	}
	fused := (after.FusedCmpBr - before.FusedCmpBr) + (after.FusedLdOp - before.FusedLdOp)
	if fused == 0 {
		t.Error("no superinstructions fused")
	}
	t.Logf("ops_in=%d ops_out=%d regs=%d fused_cmpbr=%d fused_ldop=%d",
		opsIn, opsOut, regs,
		after.FusedCmpBr-before.FusedCmpBr, after.FusedLdOp-before.FusedLdOp)
}
