package compiled

import (
	"reflect"
	"runtime"
	"slices"
	"testing"

	"leapsandbounds/internal/core"
	"leapsandbounds/internal/flatten"
	"leapsandbounds/internal/rir"
	"leapsandbounds/internal/wasm"
	g "leapsandbounds/internal/wasmgen"
)

// pipelineModule has one function per back-half path: f0 a counted
// loop of same-base loads and stores (elide versions it, then address
// fusion and FuseMem rewrite the new stream in place), f1 a load+op
// with nothing to elide (FuseMem would rewrite preIR itself without
// the copy), f2 arithmetic only (nothing touches it).
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
	return m
}

// TestBackHalfLeavesPreIR: elide, address fusion and FuseMem all run on
// a working copy, so the IR a cfunc retains for the artifact tier is,
// after the back half, exactly what the front half produced — inner
// slices included.
func TestBackHalfLeavesPreIR(t *testing.T) {
	m := pipelineModule(t)
	noElide := NewWAVM()
	noElide.SetCodegen(core.Codegen{RegisterIR: true})
	for name, e := range map[string]*Engine{"wavm": NewWAVM(), "wavm-noelide": noElide} {
		rewrote := false
		for i := range m.Code {
			ff, err := flatten.Flatten(m, uint32(i), &m.Code[i])
			if err != nil {
				t.Fatal(err)
			}
			pre, err := rir.Build(ff)
			if err != nil {
				t.Fatal(err)
			}
			pre, _ = rir.Lower(rir.Compact(rir.Optimize(pre, ff.NumLocals)), ff.NumLocals)
			want := slices.Clone(pre)
			for k := range want {
				want[k].Table = slices.Clone(want[k].Table)
			}
			cf := &cfunc{numLocals: ff.NumLocals, preIR: pre}
			out := e.backHalf(cf)
			if !reflect.DeepEqual(cf.preIR, want) {
				t.Errorf("%s: function %d: the back half changed preIR", name, i)
			}
			if len(out) != len(pre) {
				rewrote = true
				if &out[0] == &pre[0] {
					t.Errorf("%s: function %d: rewritten IR shares preIR's backing", name, i)
				}
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
