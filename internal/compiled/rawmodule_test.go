package compiled_test

import (
	"testing"

	"leapsandbounds/internal/compiled"
	"leapsandbounds/internal/core"
	"leapsandbounds/internal/interp"
	"leapsandbounds/internal/isa"
	"leapsandbounds/internal/wasm"
)

// These tests build modules directly from wasm.Instr sequences to
// exercise instruction shapes the authoring DSL does not emit —
// br_table dispatch, branches carrying values, local.tee and blocks
// with results — on every engine.

func rawModule(params, results []wasm.ValueType, locals []wasm.ValueType, body ...wasm.Instr) *wasm.Module {
	body = append(body, wasm.Instr{Op: wasm.OpEnd})
	return &wasm.Module{
		Types:   []wasm.FuncType{{Params: params, Results: results}},
		Funcs:   []uint32{0},
		Code:    []wasm.Code{{Locals: locals, Body: body}},
		Exports: []wasm.Export{{Name: "f", Kind: wasm.ExternFunc, Index: 0}},
	}
}

func ri(op wasm.Opcode, a ...uint64) wasm.Instr {
	in := wasm.Instr{Op: op}
	if len(a) > 0 {
		in.A = a[0]
	}
	return in
}

func runRawAll(t *testing.T, m *wasm.Module, arg uint64) uint64 {
	t.Helper()
	return result(t, m, call("f", arg))
}

func TestRawBrTableDispatch(t *testing.T) {
	// switch (x) { case 0: 100; case 1: 200; default: 999 }
	// block block block (br_table 0 1, default 2) end 100 ret end 200 ret end 999
	m := rawModule([]wasm.ValueType{wasm.I32}, []wasm.ValueType{wasm.I32}, nil,
		ri(wasm.OpBlock, wasm.BlockEmpty),
		ri(wasm.OpBlock, wasm.BlockEmpty),
		ri(wasm.OpBlock, wasm.BlockEmpty),
		ri(wasm.OpLocalGet, 0),
		wasm.Instr{Op: wasm.OpBrTable, A: 0, B: 3},
		ri(wasm.OpEnd),
		ri(wasm.OpI32Const, 100),
		ri(wasm.OpReturn),
		ri(wasm.OpEnd),
		ri(wasm.OpI32Const, 200),
		ri(wasm.OpReturn),
		ri(wasm.OpEnd),
		ri(wasm.OpI32Const, 999),
	)
	m.Code[0].Targets = []uint32{0, 1, 2}
	cases := map[uint64]uint64{0: 100, 1: 200, 2: 999, 100: 999}
	for arg, want := range cases {
		if got := runRawAll(t, m, arg); got != want {
			t.Errorf("br_table(%d) = %d, want %d", arg, got, want)
		}
	}
}

func TestRawBlockWithResult(t *testing.T) {
	// (block (result i32) x end) + 1
	m := rawModule([]wasm.ValueType{wasm.I32}, []wasm.ValueType{wasm.I32}, nil,
		ri(wasm.OpBlock, uint64(wasm.I32)),
		ri(wasm.OpLocalGet, 0),
		ri(wasm.OpEnd),
		ri(wasm.OpI32Const, 1),
		ri(wasm.OpI32Add),
	)
	if got := runRawAll(t, m, 41); got != 42 {
		t.Errorf("got %d", got)
	}
}

func TestRawBrCarriesValue(t *testing.T) {
	// block (result i32): if x then br with 7 (skipping the tail)
	// else fall through to 9.
	m := rawModule([]wasm.ValueType{wasm.I32}, []wasm.ValueType{wasm.I32}, nil,
		ri(wasm.OpBlock, uint64(wasm.I32)),
		ri(wasm.OpI32Const, 7),
		ri(wasm.OpLocalGet, 0),
		ri(wasm.OpBrIf, 0), // carries the 7 out when x != 0
		ri(wasm.OpDrop),
		ri(wasm.OpI32Const, 9),
		ri(wasm.OpEnd),
	)
	if got := runRawAll(t, m, 1); got != 7 {
		t.Errorf("taken: %d", got)
	}
	if got := runRawAll(t, m, 0); got != 9 {
		t.Errorf("fallthrough: %d", got)
	}
}

func TestRawLocalTee(t *testing.T) {
	// tee keeps the value on the stack: result = tee(l, x+1) * l
	m := rawModule([]wasm.ValueType{wasm.I32}, []wasm.ValueType{wasm.I32},
		[]wasm.ValueType{wasm.I32},
		ri(wasm.OpLocalGet, 0),
		ri(wasm.OpI32Const, 1),
		ri(wasm.OpI32Add),
		ri(wasm.OpLocalTee, 1),
		ri(wasm.OpLocalGet, 1),
		ri(wasm.OpI32Mul),
	)
	if got := runRawAll(t, m, 6); got != 49 {
		t.Errorf("tee: %d, want 49", got)
	}
}

func TestRawLoopWithResult(t *testing.T) {
	// A loop whose fallthrough yields a value.
	m := rawModule([]wasm.ValueType{wasm.I32}, []wasm.ValueType{wasm.I32}, nil,
		ri(wasm.OpLoop, uint64(wasm.I32)),
		ri(wasm.OpLocalGet, 0),
		ri(wasm.OpEnd),
	)
	if got := runRawAll(t, m, 5); got != 5 {
		t.Errorf("loop result: %d", got)
	}
}

func TestRawStartFunction(t *testing.T) {
	// The start function runs at instantiation and initializes a
	// global the export then reads.
	one := uint32(1)
	m := &wasm.Module{
		Types: []wasm.FuncType{
			{Results: []wasm.ValueType{wasm.I32}}, // 0: () -> i32
			{},                                    // 1: () -> ()
		},
		Funcs: []uint32{0, 1},
		Globals: []wasm.Global{{
			Type: wasm.GlobalType{Type: wasm.I32, Mutable: true},
			Init: wasm.ConstExpr{Op: wasm.OpI32Const, Value: 0},
		}},
		Code: []wasm.Code{
			{Body: []wasm.Instr{
				ri(wasm.OpGlobalGet, 0),
				{Op: wasm.OpEnd},
			}},
			{Body: []wasm.Instr{
				ri(wasm.OpI32Const, 77),
				ri(wasm.OpGlobalSet, 0),
				{Op: wasm.OpEnd},
			}},
		},
		Exports: []wasm.Export{{Name: "f", Kind: wasm.ExternFunc, Index: 0}},
		Start:   &one,
	}
	engines := []core.Engine{interp.NewWasm3(), compiled.NewWasmtime(), compiled.NewWAVM()}
	for _, e := range engines {
		cm, err := e.Compile(m)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		inst, err := cm.Instantiate(core.Config{Profile: isa.X86_64()}, nil)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		res, err := inst.Invoke("f")
		inst.Close()
		if err != nil || res[0] != 77 {
			t.Errorf("%s: start effect %v %v", e.Name(), res, err)
		}
	}
}

func TestRawFunctionEndJoinFromDifferentHeights(t *testing.T) {
	// Two branches reach the function end carrying a result from
	// different operand heights; the end is never reached by
	// fallthrough. The join must read the carried value regardless
	// of which path ran (regression test for static-slot selection
	// at the function-end join).
	m := rawModule([]wasm.ValueType{wasm.I32}, []wasm.ValueType{wasm.I32}, nil,
		ri(wasm.OpBlock, wasm.BlockEmpty),
		ri(wasm.OpLocalGet, 0),
		ri(wasm.OpIf, wasm.BlockEmpty),
		ri(wasm.OpI32Const, 9),
		ri(wasm.OpBr, 2), // to function end at operand height 1
		ri(wasm.OpEnd),
		ri(wasm.OpI32Const, 1),
		ri(wasm.OpI32Const, 7),
		ri(wasm.OpBr, 1), // to function end at operand height 2
		ri(wasm.OpEnd),
		// Validation-required (but never executed) fallthrough value.
		ri(wasm.OpI32Const, 5),
	)
	if got := runRawAll(t, m, 1); got != 9 {
		t.Errorf("taken path: %d, want 9", got)
	}
	if got := runRawAll(t, m, 0); got != 7 {
		t.Errorf("other path: %d, want 7", got)
	}
}

func TestRawUnreachableAfterBranchElided(t *testing.T) {
	// Dead code after br must not execute nor break compilation.
	m := rawModule([]wasm.ValueType{wasm.I32}, []wasm.ValueType{wasm.I32}, nil,
		ri(wasm.OpBlock, uint64(wasm.I32)),
		ri(wasm.OpI32Const, 3),
		ri(wasm.OpBr, 0),
		ri(wasm.OpUnreachable), // dead
		ri(wasm.OpEnd),
	)
	if got := runRawAll(t, m, 0); got != 3 {
		t.Errorf("got %d", got)
	}
}
