package tiered_test

import (
	"errors"
	"sync"
	"testing"
	"time"

	leaps "leapsandbounds"
	"leapsandbounds/internal/compiled"
	"leapsandbounds/internal/core"
	"leapsandbounds/internal/interp"
	"leapsandbounds/internal/tiered"
	"leapsandbounds/internal/validate"
	"leapsandbounds/internal/wasm"
	g "leapsandbounds/internal/wasmgen"
)

// coldEngines returns the four engines a cold start can go through,
// each new and detached from the compile cache, so that every Compile
// pays the whole pipeline; stop ends the tiered engine's workers.
func coldEngines() (engines map[string]core.Engine, stop func()) {
	v8 := tiered.New()
	engines = map[string]core.Engine{
		"wavm": compiled.NewWAVM(), "wasmtime": compiled.NewWasmtime(), "wasm3": interp.NewWasm3(), "v8": v8,
	}
	for _, e := range engines {
		e.SetCache(nil)
	}
	return engines, v8.Close
}

// fewFuncsBytes is a module of eight functions, as bytes.
func fewFuncsBytes(t *testing.T) []byte {
	t.Helper()
	mb := g.NewModule()
	for k := 0; k < 8; k++ {
		fn := mb.Func("", wasm.I64)
		fn.Body(g.Return(g.I64(int64(k))))
	}
	bin, err := mb.Build()
	if err != nil {
		t.Fatal(err)
	}
	return bin
}

// TestColdStartValidatesEachBodyOnce: from bytes to a compiled module —
// the tiered engine's two tiers included — every function body is
// type-checked exactly once, by DecodeModule; no Compile walks a module
// that carries the validated mark.
func TestColdStartValidatesEachBodyOnce(t *testing.T) {
	bin := fewFuncsBytes(t)
	engines, stop := coldEngines()
	defer stop()
	for name, eng := range engines {
		modules0, bodies0 := validate.Stats()
		m, err := leaps.DecodeModule(bin)
		if err != nil {
			t.Fatal(err)
		}
		cm, err := eng.Compile(m)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !tiered.WaitReady(cm, 5*time.Second) {
			t.Fatalf("%s: top tier never became ready", name)
		}
		modules1, bodies1 := validate.Stats()
		if modules1-modules0 != 1 || bodies1-bodies0 != int64(len(m.Code)) {
			t.Errorf("%s: a cold start walked the module %d times and checked %d bodies; want once, %d bodies",
				name, modules1-modules0, bodies1-bodies0, len(m.Code))
		}
	}
}

// TestCompileValidatesWhatNobodyHas: "once" is never "zero times". A
// hand-built module that never went through validate is validated by
// whichever engine compiles it, and refused if ill-typed — on every
// call: a failed validation leaves no mark.
func TestCompileValidatesWhatNobodyHas(t *testing.T) {
	illTyped := &wasm.Module{
		Types: []wasm.FuncType{{Results: []wasm.ValueType{wasm.I32}}},
		Funcs: []uint32{0},
		Code:  []wasm.Code{{Body: []wasm.Instr{{Op: wasm.OpI64Const, A: 1}, {Op: wasm.OpEnd}}}},
	}
	engines, stop := coldEngines()
	defer stop()
	for name, eng := range engines {
		for call := 0; call < 2; call++ {
			modules0, _ := validate.Stats()
			if _, err := eng.Compile(illTyped); !errors.Is(err, validate.ErrInvalid) {
				t.Errorf("%s, call %d: Compile of an ill-typed module returned error %v", name, call, err)
			}
			if modules1, _ := validate.Stats(); modules1-modules0 < 1 || illTyped.Validated() {
				t.Errorf("%s, call %d: the module was walked %d times (marked valid: %v)",
					name, call, modules1-modules0, illTyped.Validated())
			}
		}
	}
}

// TestTwoEnginesCompileOneFreshModule: a module nobody has validated,
// compiled by two engines at once (the tiered engine's background
// tier does this): both validate or one does and the other reads its
// mark, and under -race neither trips over the other.
func TestTwoEnginesCompileOneFreshModule(t *testing.T) {
	bin := fewFuncsBytes(t)
	for round := 0; round < 20; round++ {
		m, err := wasm.Decode(bin)
		if err != nil {
			t.Fatal(err)
		}
		engines, stop := coldEngines()
		var wg sync.WaitGroup
		for _, name := range []string{"wavm", "wasm3"} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := engines[name].Compile(m); err != nil {
					t.Errorf("%s: %v", name, err)
				}
			}()
		}
		wg.Wait()
		stop()
		if !m.Validated() {
			t.Fatal("compiled twice and still not marked valid")
		}
	}
}
