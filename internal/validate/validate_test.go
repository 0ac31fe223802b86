package validate_test

import (
	"runtime"
	"slices"
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
		in.B = uint32(a[1])
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
		wasm.Instr{Op: wasm.OpBrTable, A: 0, B: 2},
		i(wasm.OpEnd),
		i(wasm.OpI32Const, 1),
		i(wasm.OpEnd),
		i(wasm.OpDrop),
	)
	m.Code[0].Targets = []uint32{0, 1}
	wantErr(t, m, "arities differ")
}

// TestBrTableSideTable: a built module reaches validation before
// anything else reads it, so the validator holds its br_tables to the
// side table's layout — each takes the table's next entries, at least
// one, within the table, and together they take every entry — the
// rules interp.fold's prover holds flatten's table to.
func TestBrTableSideTable(t *testing.T) {
	brTable := func(a uint64, b uint32) []wasm.Instr {
		return []wasm.Instr{
			i(wasm.OpBlock, wasm.BlockEmpty),
			i(wasm.OpLocalGet, 0),
			{Op: wasm.OpBrTable, A: a, B: b},
			i(wasm.OpEnd),
		}
	}
	for _, c := range []struct {
		name    string
		body    []wasm.Instr
		targets []uint32
		want    string // "" if valid
	}{
		{"two tables in order", append(brTable(0, 2), brTable(2, 1)...), []uint32{0, 1, 0}, ""},
		{"empty range", brTable(0, 0), []uint32{0}, "br_table entries [0, 0+0) of 1, the next one 0"},
		{"not the next entries", append(brTable(0, 1), brTable(0, 1)...), []uint32{0, 0}, "br_table entries [0, 0+1) of 2, the next one 1"},
		{"range past the table", brTable(0, 3), []uint32{0, 0}, "br_table entries [0, 0+3) of 2, the next one 0"},
		{"entries past the last br_table", brTable(0, 1), []uint32{0, 0}, "1 br_table entries past the last br_table"},
	} {
		t.Run(c.name, func(t *testing.T) {
			m := fn([]wasm.ValueType{wasm.I32}, nil, nil, c.body...)
			m.Code[0].Targets = c.targets
			if c.want == "" {
				wantOK(t, m)
			} else {
				wantErr(t, m, c.want)
			}
		})
	}
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
// function, in the loop's words — whichever worker fails first, at one
// worker and at four. It holds for the walk of the module (Module) and
// for its bytes, type-checked as they are decoded (Decode), which names
// the function from the name section that follows the code. The module
// is walked every round: a failed validation leaves no mark.
func TestLowestInvalidBody(t *testing.T) {
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
	paths := func(m *wasm.Module) map[string]func() error {
		bin, err := wasm.Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		return map[string]func() error{
			"Module": func() error { return validate.Module(m) },
			"Decode": func() error { _, err := validate.Decode(bin); return err },
		}
	}
	const want = "validate: invalid module: function 6: instr 1 (end): type mismatch: got i64, want i32"
	for name, validate1 := range paths(m) {
		for _, procs := range []int{1, 4} {
			func() {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				modules0, bodies0 := validate.Stats()
				for round := 0; round < 100; round++ {
					if err := validate1(); err == nil || err.Error() != want {
						t.Fatalf("%s, GOMAXPROCS=%d, round %d: error %q, want %q", name, procs, round, err, want)
					}
				}
				modules1, bodies1 := validate.Stats()
				if modules1-modules0 != 100 || bodies1-bodies0 != 100*(lo+1) || m.Validated() {
					t.Errorf("%s, GOMAXPROCS=%d: %d walks and %d bodies counted in 100 calls (marked valid: %v); an invalid module must be walked every time, up to body %d",
						name, procs, modules1-modules0, bodies1-bodies0, m.Validated(), lo)
				}
			}()
		}
	}
	m.Code[lo] = good
	for name, validate1 := range paths(m) {
		const want = "validate: invalid module: function 10 (later): instr 0 (end): operand stack underflow"
		if err := validate1(); err == nil || err.Error() != want {
			t.Errorf("%s: error %q, want %q", name, err, want)
		}
	}
}

// Byte-level builders for modules a decoder sees, faults included.
func section(id byte, body ...byte) []byte {
	return append(wasm.AppendUleb128([]byte{id}, uint64(len(body))), body...)
}

func vec(items ...[]byte) []byte {
	out := wasm.AppendUleb128(nil, uint64(len(items)))
	for _, it := range items {
		out = append(out, it...)
	}
	return out
}

func binary(sections ...[]byte) []byte {
	return append(wasm.Magic[:4:4], append(wasm.Version[:4:4], slices.Concat(sections...)...)...)
}

// body is a code-section entry: its size, no locals, code.
func body(code ...byte) []byte { return append([]byte{byte(len(code) + 1), 0x00}, code...) }

var (
	voidType = section(1, 0x01, 0x60, 0x00, 0x00) // type 0: () -> ()
	goodBody = body(0x0b)                         // end
	typeBad  = body(0x41, 0x00, 0x0b)             // i32.const 0; end: an extra operand
	opBad    = body(0xff)                         // an opcode that does not exist
)

// funcs is a function section of n functions of type ti.
func funcs(n int, ti byte) []byte {
	return section(3, vec(slices.Repeat([][]byte{{ti}}, n)...)...)
}

// code is a code section of 16 good bodies, but for the ones given.
func code(bad map[int][]byte) []byte {
	bs := slices.Repeat([][]byte{goodBody}, 16)
	for k, b := range bad {
		bs[k] = b
	}
	return section(10, vec(bs...)...)
}

// faultModules have faults of two kinds at once, and the error
// wasm.Decode followed by Module reports: a decode error wins over a
// type error, a module-level error over a body error, and no body is
// checked against index spaces that cannot be built.
var faultModules = []struct {
	name string
	in   []byte
	want string
}{
	{"decode error in a high body, type error in a low one",
		binary(voidType, funcs(16, 0), code(map[int][]byte{2: typeBad, 13: opBad})),
		"function 13: wasm: malformed module: offset 2: unknown opcode 0xff"},
	{"decode error after the code section, type error in a body",
		binary(voidType, funcs(16, 0), code(map[int][]byte{2: typeBad}), section(11, 0x01)),
		"wasm: malformed module: offset 1: wasm: malformed LEB128 integer: truncated"},
	{"module-level error and a body error",
		binary(voidType, funcs(16, 0), section(7, 0x01, 0x01, 'f', 0x00, 0x10), code(map[int][]byte{2: typeBad})),
		`validate: invalid module: export "f": function index 16 out of range`},
	{"more bodies than functions",
		binary(voidType, funcs(15, 0), code(map[int][]byte{0: typeBad})),
		"wasm: malformed module: function section declares 15 functions but code section has 16 bodies"},
	{"bad type index in the function section",
		binary(voidType, funcs(16, 5), code(map[int][]byte{0: typeBad})),
		"validate: invalid module: function 0: type index 5 out of range"},
}

// twoPass is what a binary got before Decode: wasm.Decode, then Module.
func twoPass(data []byte) (*wasm.Module, error) {
	m, err := wasm.Decode(data)
	if err == nil {
		err = validate.Module(m)
	}
	return m, err
}

// TestDecodeErrorOrder: with faults of two kinds in one binary, Decode
// reports the error the two passes do, at one worker and at four.
func TestDecodeErrorOrder(t *testing.T) {
	for _, c := range faultModules {
		t.Run(c.name, func(t *testing.T) {
			if _, err := twoPass(c.in); err == nil || err.Error() != c.want {
				t.Fatalf("wasm.Decode + Module: error %q, want %q", err, c.want)
			}
			for _, procs := range []int{1, 4} {
				func() {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					for round := 0; round < 100; round++ {
						if m, err := validate.Decode(c.in); m != nil || err == nil || err.Error() != c.want {
							t.Fatalf("GOMAXPROCS=%d round %d: %v, error %q, want %q", procs, round, m, err, c.want)
						}
					}
				}()
			}
		})
	}
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
