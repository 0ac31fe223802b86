package compiled

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"slices"
	"testing"

	"leapsandbounds/internal/prof"
	"leapsandbounds/internal/rir"
	"leapsandbounds/internal/validate"
	"leapsandbounds/internal/wasm"
	g "leapsandbounds/internal/wasmgen"
	"leapsandbounds/internal/workloads"
)

// pipelineModule has one function per back-half path: f0 a br_table
// around a counted loop of same-base loads and stores (elide versions
// the loop, then address fusion and FuseMem rewrite the new stream in
// place, every branch target included), f1 a load+op with nothing to
// elide (FuseMem rewrites the front half's stream itself), f2
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
		{Op: wasm.OpBrTable, A: 0, B: 2},
		{Op: wasm.OpEnd},
	}, body[:len(body)-1]...),
		wasm.Instr{Op: wasm.OpEnd}, wasm.Instr{Op: wasm.OpI64Const}, wasm.Instr{Op: wasm.OpEnd})
	m.Code[0].Targets = []uint32{1, 1} // the generated body has no br_table
	if err := validate.Module(&wasm.Module{Types: m.Types, Funcs: m.Funcs, Mems: m.Mems, Code: m.Code}); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestArtifactIsTheFrontHalf: a compiled function keeps no IR, so
// EncodeArtifact re-derives every function's front half from the
// module. Its bytes are the flat form of the stream lowerFunc hands
// backHalf, function by function, and the re-derivation counts
// nothing: rir.Stats() and Stats() read the same before and after an
// encode (the benchmark reads them around compiles, and a compile may
// store its artifact). The back half then rewrites some function's
// stream on each pipeline that has one, or the test checks nothing.
func TestArtifactIsTheFrontHalf(t *testing.T) {
	m := pipelineModule(t)
	noElide := NewWAVM()
	noElide.elide = false
	le := binary.LittleEndian
	for name, e := range map[string]*Engine{"wavm": NewWAVM(), "wavm-noelide": noElide, "wasmtime": NewWasmtime()} {
		want := append(le.AppendUint32(nil, artifactVersion), e.codegenFlags())
		want = le.AppendUint32(want, uint32(len(m.Code)))
		rewrote := false
		sc := new(scratch)
		for i := range m.Code {
			cf, f, _, err := e.frontHalf(m, 0, i, sc)
			if err != nil {
				t.Fatal(err)
			}
			want = le.AppendUint32(want, uint32(cf.frameSize))
			want = f.AppendFlat(want)
			front := slices.Clone(f.Code)
			out := e.backHalf(f, sc)
			rewrote = rewrote || !slices.Equal(out.Code, front)
			if err := cf.emit(out); err != nil {
				t.Errorf("%s: function %d: %v", name, i, err)
			}
		}
		if e.lower && !rewrote {
			t.Errorf("%s: no function was rewritten by the back half; the test checks nothing", name)
		}
		cm, err := e.compileModule(m)
		if err != nil {
			t.Fatal(err)
		}
		r0, b0 := rir.Stats(), Stats()
		got, err := e.EncodeArtifact(cm)
		if err != nil {
			t.Fatal(err)
		}
		if r1, b1 := rir.Stats(), Stats(); r1 != r0 || b1 != b0 {
			t.Errorf("%s: encoding moved the compile counters: rir %+v -> %+v, bce %+v -> %+v", name, r0, r1, b0, b1)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: artifact of %d bytes is not the front halves' flat form (%d bytes)", name, len(got), len(want))
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

// TestUncheckedAccessesAreElided: every op the back half leaves
// Unchecked — an access, alone or as a fused pair's half, that a range
// check proved in bounds — has an account op that publishes it as
// prof.FlagElided, and no checked access has one. Versioning clears
// MemAcc where it sets Unchecked, so an op that needed both would
// never be elided.
func TestUncheckedAccessesAreElided(t *testing.T) {
	wl, err := workloads.ByName("gemm")
	if err != nil {
		t.Fatal(err)
	}
	m, _ := wl.Build(workloads.Test)
	e, sc := NewWAVM(), new(scratch)
	unchecked, elided := 0, 0
	for i := range m.Code {
		cf, f, err := e.lowerFunc(m, uint32(m.NumImportedFuncs()), i, sc)
		if err != nil {
			t.Fatal(err)
		}
		if err := cf.emit(f); err != nil {
			t.Fatal(err)
		}
		for pc := range f.Code {
			a := cf.account(&cf.code[pc])
			u, el := f.Code[pc].Has(rir.Unchecked), a.c&int32(prof.FlagElided) != 0
			if u {
				unchecked++
			}
			if el {
				elided++
			}
			if el && a.c&int32(prof.FlagChecked) != 0 {
				t.Errorf("function %d pc %d: elided and checked at once", i, pc)
			}
			if u != el {
				t.Errorf("function %d pc %d: unchecked %v, elided %v: %s", i, pc, u, el, f.Code[pc].String(f))
			}
		}
	}
	if unchecked == 0 || elided != unchecked {
		t.Errorf("gemm: %d elided entries for %d unchecked ops", elided, unchecked)
	}
}
