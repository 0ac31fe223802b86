package validate_test

import (
	"runtime"
	"strings"
	"testing"

	"leapsandbounds/internal/validate"
	"leapsandbounds/internal/wasm"
)

// fn builds a minimal one-function module around the given body.
func fn(params, results []wasm.ValueType, locals []wasm.ValueType, body ...wasm.Instr) *wasm.Module {
	body = append(body, wasm.Instr{Op: wasm.OpEnd})
	return &wasm.Module{
		Types: []wasm.FuncType{{Params: params, Results: results}},
		Funcs: []uint32{0},
		Code:  []wasm.Code{{Locals: locals, Body: body}},
		Mems:  []wasm.MemoryType{{Limits: wasm.Limits{Min: 1}}},
	}
}

func i(op wasm.Opcode, a ...uint64) wasm.Instr {
	in := wasm.Instr{Op: op}
	if len(a) > 0 {
		in.A = a[0]
	}
	if len(a) > 1 {
		in.B = a[1]
	}
	return in
}

func wantOK(t *testing.T, m *wasm.Module) {
	t.Helper()
	if err := validate.Module(m); err != nil {
		t.Fatalf("expected valid, got: %v", err)
	}
}

func wantErr(t *testing.T, m *wasm.Module, substr string) {
	t.Helper()
	err := validate.Module(m)
	if err == nil {
		t.Fatalf("expected error containing %q, got nil", substr)
	}
	if !strings.Contains(err.Error(), substr) {
		t.Fatalf("error %q does not contain %q", err, substr)
	}
}

func TestValidSimple(t *testing.T) {
	// (param i32 i32) (result i32): add
	m := fn([]wasm.ValueType{wasm.I32, wasm.I32}, []wasm.ValueType{wasm.I32}, nil,
		i(wasm.OpLocalGet, 0), i(wasm.OpLocalGet, 1), i(wasm.OpI32Add))
	wantOK(t, m)
}

func TestStackUnderflow(t *testing.T) {
	m := fn(nil, []wasm.ValueType{wasm.I32}, nil, i(wasm.OpI32Add))
	wantErr(t, m, "underflow")
}

func TestTypeMismatch(t *testing.T) {
	m := fn(nil, []wasm.ValueType{wasm.I32}, nil,
		i(wasm.OpI32Const, 1), i(wasm.OpF64Const, 0), i(wasm.OpI32Add))
	wantErr(t, m, "type mismatch")
}

func TestResultMissing(t *testing.T) {
	m := fn(nil, []wasm.ValueType{wasm.I32}, nil)
	wantErr(t, m, "underflow")
}

func TestExtraOperandAtEnd(t *testing.T) {
	m := fn(nil, nil, nil, i(wasm.OpI32Const, 1))
	wantErr(t, m, "extra operands")
}

func TestLocalOutOfRange(t *testing.T) {
	m := fn(nil, nil, []wasm.ValueType{wasm.I32}, i(wasm.OpLocalGet, 5), i(wasm.OpDrop))
	wantErr(t, m, "out of range")
}

func TestBrDepth(t *testing.T) {
	ok := fn(nil, nil, nil,
		i(wasm.OpBlock, wasm.BlockEmpty), i(wasm.OpBr, 0), i(wasm.OpEnd))
	wantOK(t, ok)
	bad := fn(nil, nil, nil,
		i(wasm.OpBlock, wasm.BlockEmpty), i(wasm.OpBr, 5), i(wasm.OpEnd))
	wantErr(t, bad, "br depth")
}

func TestIfRequiresCondition(t *testing.T) {
	m := fn(nil, nil, nil,
		i(wasm.OpIf, wasm.BlockEmpty), i(wasm.OpEnd))
	wantErr(t, m, "underflow")
}

func TestIfWithResultRequiresElse(t *testing.T) {
	m := fn(nil, []wasm.ValueType{wasm.I32}, nil,
		i(wasm.OpI32Const, 1),
		i(wasm.OpIf, uint64(wasm.I32)),
		i(wasm.OpI32Const, 2),
		i(wasm.OpEnd))
	wantErr(t, m, "no else")
}

func TestIfElseResult(t *testing.T) {
	m := fn(nil, []wasm.ValueType{wasm.I32}, nil,
		i(wasm.OpI32Const, 1),
		i(wasm.OpIf, uint64(wasm.I32)),
		i(wasm.OpI32Const, 2),
		i(wasm.OpElse),
		i(wasm.OpI32Const, 3),
		i(wasm.OpEnd))
	wantOK(t, m)
}

func TestUnreachableRelaxesTyping(t *testing.T) {
	// After unreachable, the operand stack is polymorphic: adding
	// "out of thin air" values is allowed by the spec.
	m := fn(nil, []wasm.ValueType{wasm.I32}, nil,
		i(wasm.OpUnreachable), i(wasm.OpI32Add))
	wantOK(t, m)
}

func TestSelectOperandAgreement(t *testing.T) {
	bad := fn(nil, []wasm.ValueType{wasm.I32}, nil,
		i(wasm.OpI32Const, 1), i(wasm.OpF64Const, 0), i(wasm.OpI32Const, 1),
		i(wasm.OpSelect))
	wantErr(t, bad, "select")
}

func TestMemoryOpsRequireMemory(t *testing.T) {
	m := fn(nil, []wasm.ValueType{wasm.I32}, nil,
		i(wasm.OpI32Const, 0), i(wasm.OpI32Load, 2, 0))
	m.Mems = nil
	wantErr(t, m, "no memory")
}

func TestAlignmentBound(t *testing.T) {
	// alignment 2^3 = 8 exceeds i32.load's 4-byte width
	m := fn(nil, []wasm.ValueType{wasm.I32}, nil,
		i(wasm.OpI32Const, 0), i(wasm.OpI32Load, 3, 0))
	wantErr(t, m, "alignment")
}

func TestGlobalSetImmutable(t *testing.T) {
	m := fn(nil, nil, nil,
		i(wasm.OpI32Const, 1), i(wasm.OpGlobalSet, 0))
	m.Globals = []wasm.Global{{
		Type: wasm.GlobalType{Type: wasm.I32, Mutable: false},
		Init: wasm.ConstExpr{Op: wasm.OpI32Const, Value: 0},
	}}
	wantErr(t, m, "immutable")
}

func TestGlobalInitTypeMismatch(t *testing.T) {
	m := fn(nil, nil, nil)
	m.Globals = []wasm.Global{{
		Type: wasm.GlobalType{Type: wasm.I32, Mutable: true},
		Init: wasm.ConstExpr{Op: wasm.OpF64Const, Value: 0},
	}}
	wantErr(t, m, "initializer type")
}

func TestCallArity(t *testing.T) {
	// Function 0 calls itself without the needed argument.
	m := fn([]wasm.ValueType{wasm.I32}, nil, nil, i(wasm.OpCall, 0))
	wantErr(t, m, "underflow")
}

func TestCallIndirectRequiresTable(t *testing.T) {
	m := fn(nil, nil, nil,
		i(wasm.OpI32Const, 0), i(wasm.OpCallIndirect, 0))
	wantErr(t, m, "no table")
}

func TestStartSignature(t *testing.T) {
	m := fn([]wasm.ValueType{wasm.I32}, nil, nil, i(wasm.OpDrop))
	// Make the body valid for the signature first.
	m.Code[0].Body = []wasm.Instr{i(wasm.OpNop), i(wasm.OpEnd)}
	start := uint32(0)
	m.Start = &start
	wantErr(t, m, "start function")
}

func TestExportIndexBounds(t *testing.T) {
	m := fn(nil, nil, nil)
	m.Exports = []wasm.Export{{Name: "f", Kind: wasm.ExternFunc, Index: 7}}
	wantErr(t, m, "out of range")
}

func TestElemSegmentBounds(t *testing.T) {
	m := fn(nil, nil, nil)
	m.Tables = []wasm.TableType{{Elem: wasm.Funcref, Limits: wasm.Limits{Min: 1, Max: 1, HasMax: true}}}
	m.Elems = []wasm.ElemSegment{{
		Offset: wasm.ConstExpr{Op: wasm.OpI32Const, Value: 0},
		Funcs:  []uint32{99},
	}}
	wantErr(t, m, "out of range")
}

func TestBrTableArityAgreement(t *testing.T) {
	// One target yields a value, the other does not.
	m := fn(nil, nil, nil,
		i(wasm.OpBlock, uint64(wasm.I32)),
		i(wasm.OpBlock, wasm.BlockEmpty),
		i(wasm.OpI32Const, 0),
		wasm.Instr{Op: wasm.OpBrTable, Targets: []uint32{0}, A: 1},
		i(wasm.OpEnd),
		i(wasm.OpI32Const, 1),
		i(wasm.OpEnd),
		i(wasm.OpDrop),
	)
	wantErr(t, m, "arities differ")
}

func TestLoopBranchTakesNoValues(t *testing.T) {
	// br to a loop header targets the loop start: label types are the
	// loop's inputs (empty in MVP), so this is valid even though the
	// loop yields a result at fallthrough.
	m := fn(nil, []wasm.ValueType{wasm.I32}, nil,
		i(wasm.OpLoop, uint64(wasm.I32)),
		i(wasm.OpI32Const, 42),
		i(wasm.OpEnd))
	wantOK(t, m)
}

// TestBodiesWithoutFunctions: a hand-built module whose code section
// is longer than its function section has no signature for the extra
// body; that is an error, not an index out of range on a worker.
func TestBodiesWithoutFunctions(t *testing.T) {
	m := fn(nil, nil, nil)
	m.Code = append(m.Code, m.Code[0])
	wantErr(t, m, "1 functions declared but 2 bodies")
}

// TestLowestInvalidBody: bodies are checked on fanout's workers, and
// with two invalid ones the error is still the loop's — the lower
// function, in the loop's words — whichever worker fails first. The
// module is walked every round: a failed validation leaves no mark.
func TestLowestInvalidBody(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const n, lo, hi = 64, 5, 9
	m := fn(nil, []wasm.ValueType{wasm.I32}, nil, i(wasm.OpI32Const, 1))
	m.Imports = []wasm.Import{{Module: "env", Name: "f", Kind: wasm.ExternFunc}}
	m.FuncNames = map[uint32]string{1 + hi: "later"}
	good := m.Code[0]
	m.Funcs, m.Code = make([]uint32, n), make([]wasm.Code, n)
	for k := range m.Code {
		m.Code[k] = good
	}
	m.Code[lo].Body = []wasm.Instr{i(wasm.OpI64Const, 1), i(wasm.OpEnd)}
	m.Code[hi].Body = []wasm.Instr{i(wasm.OpEnd)}
	const want = "validate: invalid module: function 6: instr 1 (end): type mismatch: got i64, want i32"
	modules0, bodies0 := validate.Stats()
	for round := 0; round < 100; round++ {
		if err := validate.Module(m); err == nil || err.Error() != want {
			t.Fatalf("round %d: error %q, want %q", round, err, want)
		}
	}
	modules1, bodies1 := validate.Stats()
	if modules1-modules0 != 100 || bodies1-bodies0 != 100*(lo+1) || m.Validated() {
		t.Errorf("%d walks and %d bodies counted in 100 calls (marked valid: %v); an invalid module must be walked every time, up to body %d",
			modules1-modules0, bodies1-bodies0, m.Validated(), lo)
	}
	m.Code[lo] = good
	wantErr(t, m, "function 10 (later): instr 0 (end): operand stack underflow")
}

// TestValidatedOnce: a valid module is walked once — every body of it
// — and the calls after that return at once.
func TestValidatedOnce(t *testing.T) {
	m := fn(nil, []wasm.ValueType{wasm.I32}, nil, i(wasm.OpI32Const, 1))
	m.Funcs, m.Code = []uint32{0, 0, 0}, []wasm.Code{m.Code[0], m.Code[0], m.Code[0]}
	modules0, bodies0 := validate.Stats()
	for round := 0; round < 3; round++ {
		wantOK(t, m)
	}
	modules1, bodies1 := validate.Stats()
	if modules1-modules0 != 1 || bodies1-bodies0 != 3 || !m.Validated() {
		t.Errorf("3 calls on a valid 3-body module: %d walks, %d bodies checked, marked valid: %v; want 1, 3, true",
			modules1-modules0, bodies1-bodies0, m.Validated())
	}
}
