package compiled

import (
	"reflect"
	"runtime"
	"slices"
	"testing"

	"leapsandbounds/internal/flatten"
	"leapsandbounds/internal/rir"
	"leapsandbounds/internal/validate"
	"leapsandbounds/internal/wasm"
	g "leapsandbounds/internal/wasmgen"
)

// pipelineModule has one function per back-half path: f0 a br_table
// around a counted loop of same-base loads and stores (elide versions
// the loop, then address fusion and FuseMem rewrite the new stream in
// place, every branch target included), f1 a load+op with nothing to
// elide (FuseMem would rewrite preIR itself without the copy), f2
// arithmetic only (nothing touches it).
func pipelineModule(t *testing.T) *wasm.Module {
	t.Helper()
	mb := g.NewModule()
	mb.Memory(1, 1)
	for k := 0; k < 3; k++ {
		fn := mb.Func("", wasm.I64)
		x := fn.ParamI32("x")
		i := fn.LocalI32("i")
		acc := fn.LocalI64("acc")
		switch k {
		case 0:
			addr := g.Shl(g.Add(g.Get(i), g.Get(x)), g.I32(3))
			fn.Body(
				g.For(i, g.I32(0), g.I32(8),
					g.Set(acc, g.Add(g.Get(acc), g.LoadI64(addr, 64))),
					g.StoreI64(addr, 72, g.Get(acc)),
					g.StoreI64(addr, 80, g.Xor(g.Get(acc), g.LoadI64(addr, 88)))),
				g.Return(g.Get(acc)))
		case 1:
			fn.Body(g.Return(g.Add(g.LoadI64(g.Get(x), 8), g.I64(1))))
		default:
			fn.Body(g.Return(g.Mul(g.I64FromI32(g.Get(x)), g.I64(3))))
		}
	}
	m, err := mb.Module()
	if err != nil {
		t.Fatal(err)
	}
	// f0 becomes block (if x (br_table 1 1 x)) body end (i64.const 0): a
	// branch table, which the authoring DSL does not emit, whose target
	// lies past the loop, so every pass that moves code rewrites it.
	body := m.Code[0].Body
	m.Code[0].Body = append(append([]wasm.Instr{
		{Op: wasm.OpBlock, A: wasm.BlockEmpty},
		{Op: wasm.OpLocalGet},
		{Op: wasm.OpIf, A: wasm.BlockEmpty},
		{Op: wasm.OpLocalGet},
		{Op: wasm.OpBrTable, Targets: []uint32{1}, A: 1},
		{Op: wasm.OpEnd},
	}, body[:len(body)-1]...),
		wasm.Instr{Op: wasm.OpEnd}, wasm.Instr{Op: wasm.OpI64Const}, wasm.Instr{Op: wasm.OpEnd})
	if err := validate.Module(&wasm.Module{Types: m.Types, Funcs: m.Funcs, Mems: m.Mems, Code: m.Code}); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestBackHalfLeavesPreIR: elide, address fusion and FuseMem all run on
// a working copy, so the IR a cfunc retains for the artifact tier is,
// after the back half, exactly what the front half produced — cold
// tables included, which the working copy shares: the range checks,
// folded addresses and pairs it adds go to its own tables, and every
// target rewrite gives it a fresh branch table.
func TestBackHalfLeavesPreIR(t *testing.T) {
	m := pipelineModule(t)
	noElide := NewWAVM()
	noElide.elide = false
	for name, e := range map[string]*Engine{"wavm": NewWAVM(), "wavm-noelide": noElide} {
		rewrote := false
		sc := new(scratch)
		for i := range m.Code {
			ff, err := flatten.Flatten(m, uint32(i), &m.Code[i])
			if err != nil {
				t.Fatal(err)
			}
			front := func() *rir.Func {
				f, err := rir.BuildFunc(ff, nil)
				if err != nil {
					t.Fatal(err)
				}
				f.Optimize(nil)
				f.Compact(nil)
				f.Lower(nil)
				return f
			}
			pre, want := front(), front()
			cf := &cfunc{numLocals: ff.NumLocals, preIR: pre}
			out := e.backHalf(cf, sc)
			if !reflect.DeepEqual(cf.preIR, want) {
				t.Errorf("%s: function %d: the back half changed preIR", name, i)
			}
			// The fold can leave a stream as long as it found it, so a
			// rewrite is told by its ops, not by their number.
			if out != cf.preIR {
				if &out.Code[0] == &pre.Code[0] {
					t.Errorf("%s: function %d: rewritten IR shares preIR's ops", name, i)
				}
				rewrote = rewrote || !slices.Equal(out.Code, pre.Code)
			}
			if err := cf.emit(out); err != nil {
				t.Errorf("%s: function %d: %v", name, i, err)
			}
		}
		if !rewrote {
			t.Errorf("%s: no function was rewritten by the back half; the test checks nothing", name)
		}
	}
}

// TestCompileErrorIsLowestFunction drives the per-function fan-out over
// a module with two broken bodies: whichever worker fails first,
// Compile's error is the serial loop's — the lowest failing function,
// in the same words. The bodies are broken after wasmgen validated the
// module, so it still carries the mark and validation (which would
// refuse them) does not run again: that is outside wasm.Module's
// contract, and here it is the way to reach a failing compileFunc.
func TestCompileErrorIsLowestFunction(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	mb := g.NewModule()
	for k := 0; k < 64; k++ {
		fn := mb.Func("", wasm.I64)
		fn.Body(g.Return(g.I64(int64(k))))
	}
	m, err := mb.Module()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{5, 9} { // drop the final end
		m.Code[k].Body = m.Code[k].Body[:len(m.Code[k].Body)-1]
	}
	const want = "compiled: function 5: flatten: function body missing final end"
	e := NewWAVM()
	for round := 0; round < 200; round++ {
		cm, err := e.compileModule(m)
		if cm != nil || err == nil || err.Error() != want {
			t.Fatalf("round %d: module %v, error %q, want %q", round, cm, err, want)
		}
	}
}
