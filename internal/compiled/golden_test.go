package compiled_test

import (
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"leapsandbounds/internal/compiled"
	"leapsandbounds/internal/difftest/family"
	"leapsandbounds/internal/wasm"
	g "leapsandbounds/internal/wasmgen"
	"leapsandbounds/internal/workloads"
)

// TestEmittedCodeGolden holds the compile pipeline to the code it
// emits: for every registered workload module, the 256-function
// cold-start module and goldenExtras, under each compiled pipeline
// (compiledEngines; tiered's top tier is wavm-noelide), one sha256 over
// every emitted op's String line and emit's per-pc class and check
// tables (the line named after the configuration), and
// one over the artifact bytes (its "-artifact" line), must match
// testdata/emitted.golden. A refactor of the IR or its passes that is
// meant to change nothing leaves this file as it is; a change that
// means to alter emitted code replaces it with what the failure prints,
// and says why. A change to the artifact format alone moves only the
// "-artifact" lines.
func TestEmittedCodeGolden(t *testing.T) {
	modules := goldenModules(t)
	var got strings.Builder
	for _, c := range compiledEngines {
		eng := c.mk()
		h, art := sha256.New(), sha256.New()
		for _, m := range modules {
			fmt.Fprintf(h, "module %s\n", m.name)
			fmt.Fprintf(art, "module %s\n", m.name)
			if err := eng.WriteEmitted(h, art, m.m); err != nil {
				t.Fatalf("%s: %s: %v", c.name, m.name, err)
			}
		}
		fmt.Fprintf(&got, "%s %x\n%s-artifact %x\n", c.name, h.Sum(nil), c.name, art.Sum(nil))
	}
	want, err := os.ReadFile("testdata/emitted.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("emitted code differs from testdata/emitted.golden (%d modules); for a change meant to alter it, the file is now:\n%s",
			len(modules), got.String())
	}
}

// TestScratchReuse: a compile worker reuses one scratch across the
// functions it takes, so no table may carry what one function left into
// the next. Every golden module's functions, compiled in reverse order
// through one shared scratch — which puts small functions after large
// ones, where a stale entry shows — emit the IR and the class and check
// tables a fresh scratch gives each, under every compiled pipeline.
// (TestEmittedCodeGolden compiles in order, on one scratch per module.)
func TestScratchReuse(t *testing.T) {
	modules := goldenModules(t)
	for _, c := range compiledEngines {
		eng, shared := c.mk(), compiled.NewScratch()
		for _, m := range modules {
			for i := len(m.m.Code) - 1; i >= 0; i-- {
				got, err := eng.EmittedFunc(m.m, i, shared)
				if err != nil {
					t.Fatalf("%s: %s: function %d: %v", c.name, m.name, i, err)
				}
				want, err := eng.EmittedFunc(m.m, i, compiled.NewScratch())
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Errorf("%s: %s: function %d compiles differently on a used scratch:\n%s\nfresh:\n%s", c.name, m.name, i, got, want)
				}
			}
		}
	}
}

// goldenModules returns the golden's modules: every registered
// workload's, the 256-function cold-start module and goldenExtras.
func goldenModules(t *testing.T) []namedModule {
	var modules []namedModule
	for _, s := range workloads.All() {
		m, _ := s.Build(workloads.Test)
		modules = append(modules, namedModule{s.Name, m})
	}
	modules = append(modules, namedModule{"manyfuncs256", manyFuncsModule(t, 256)})
	return append(modules, goldenExtras(t)...)
}

type namedModule struct {
	name string
	m    *wasm.Module
}

// goldenExtras are modules that reach what the workload kernels leave
// out: a br_table, a br_if and a br carrying a value, trunc_sat,
// call_indirect, globals, memory.copy and memory.fill, a select, an
// ALU op with two immediate operands, unreachable, the counted loops
// elision does not version (uncheckedLoops), and random programs whose
// nested loops elision versions.
func goldenExtras(t *testing.T) []namedModule {
	t.Helper()
	i32 := []wasm.ValueType{wasm.I32}
	carry := rawModule(i32, i32, nil,
		ri(wasm.OpBlock, uint64(wasm.I32)),
		ri(wasm.OpBlock, uint64(wasm.I32)),
		ri(wasm.OpBlock, uint64(wasm.I32)),
		ri(wasm.OpI32Const, 10),
		ri(wasm.OpLocalGet, 0),
		wasm.Instr{Op: wasm.OpBrTable, A: 0, B: 3},
		ri(wasm.OpEnd),
		ri(wasm.OpI32Const, 1),
		ri(wasm.OpI32Add),
		ri(wasm.OpEnd),
		ri(wasm.OpLocalGet, 0),
		ri(wasm.OpBrIf, 0),
		ri(wasm.OpI32Const, 3),
		ri(wasm.OpI32Mul),
		ri(wasm.OpEnd),
		ri(wasm.OpF64Const, math.Float64bits(3.5)),
		wasm.Instr{Op: wasm.OpPrefix, Sub: wasm.SubI32TruncSatF64S},
		ri(wasm.OpI32Add),
		ri(wasm.OpBlock, uint64(wasm.I32)),
		ri(wasm.OpLocalGet, 0),
		ri(wasm.OpIf, wasm.BlockEmpty),
		ri(wasm.OpI32Const, 9),
		ri(wasm.OpBr, 1), // a jump carrying 9 out of the block
		ri(wasm.OpEnd),
		ri(wasm.OpI32Const, 4),
		ri(wasm.OpEnd),
		ri(wasm.OpI32Add),
	)
	carry.Code[0].Targets = []uint32{0, 1, 2}

	mb := g.NewModule()
	mb.Memory(1, 1)
	gl := mb.GlobalI32(5)
	sq := mb.Func("sq", wasm.I32)
	x := sq.ParamI32("x")
	sq.Body(g.Return(g.Mul(g.Get(x), g.Get(x))))
	neg := mb.Func("neg", wasm.I32)
	y := neg.ParamI32("y")
	neg.Body(g.Return(g.Sub(g.I32(0), g.Get(y))))
	mb.Table(sq, neg)
	run := mb.Func("run", wasm.I32)
	a := run.ParamI32("a")
	run.Body(
		g.SetG(gl, g.Add(g.GetG(gl), g.Get(a))),
		g.MemCopy(g.I32(0), g.I32(64), g.I32(16)),
		g.MemFill(g.I32(128), g.I32(7), g.I32(8)),
		g.If(g.Eq(g.Div(g.I32(7), g.I32(3)), g.Get(a)), g.Unreachable()),
		g.Return(g.Add(g.Sel(g.Get(a), g.GetG(gl), g.I32(1)),
			g.CallIndirect(sq, g.Rem(g.Get(a), g.I32(2)), g.Get(a)))),
	)
	mb.Export("run", run)
	misc, err := mb.Module()
	if err != nil {
		t.Fatal(err)
	}

	out := append([]namedModule{{"carry", carry}, {"misc", misc}}, uncheckedLoops(t)...)
	for _, seed := range []int64{7, 29, 62} {
		m, err := family.Program(seed, false, false)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, namedModule{fmt.Sprintf("random%d", seed), m})
	}
	return out
}
