package flatten_test

import (
	"reflect"
	"testing"
	"unsafe"

	"leapsandbounds/internal/flatten"
	"leapsandbounds/internal/wasm"
)

func flat(t *testing.T, params, results []wasm.ValueType, body ...wasm.Instr) *flatten.Func {
	t.Helper()
	return flatTables(t, params, results, nil, body...)
}

// flatTables is flat for a body whose br_tables take their entries
// from targets.
func flatTables(t *testing.T, params, results []wasm.ValueType, targets []uint32, body ...wasm.Instr) *flatten.Func {
	t.Helper()
	body = append(body, wasm.Instr{Op: wasm.OpEnd})
	m := &wasm.Module{
		Types: []wasm.FuncType{{Params: params, Results: results}},
		Funcs: []uint32{0},
		Code:  []wasm.Code{{Body: body, Targets: targets}},
	}
	ff, err := flatten.Flatten(m, 0, &m.Code[0])
	if err != nil {
		t.Fatal(err)
	}
	return ff
}

func i(op wasm.Opcode, a ...uint64) wasm.Instr {
	in := wasm.Instr{Op: op}
	if len(a) > 0 {
		in.A = a[0]
	}
	return in
}

func TestEndsWithReturn(t *testing.T) {
	ff := flat(t, nil, nil, i(wasm.OpNop))
	last := ff.Code[len(ff.Code)-1]
	if last.Op != flatten.OpReturnEnd {
		t.Fatalf("last op %v", last.Op)
	}
}

func TestBlockBranchTargetsEnd(t *testing.T) {
	// block; br 0; end — the jump must land just after the block,
	// i.e. on the function's return.
	ff := flat(t, nil, nil,
		i(wasm.OpBlock, wasm.BlockEmpty), i(wasm.OpBr, 0), i(wasm.OpEnd))
	var jump *flatten.Instr
	for k := range ff.Code {
		if ff.Code[k].Op == flatten.OpJump {
			jump = &ff.Code[k]
		}
	}
	if jump == nil {
		t.Fatal("no jump emitted")
	}
	if ff.Code[jump.Tgt].Op != flatten.OpReturnEnd {
		t.Errorf("jump target %v", ff.Code[jump.Tgt].Op)
	}
}

func TestLoopBranchTargetsHeader(t *testing.T) {
	// loop; br_if 0; end with a condition; the conditional branch
	// must target the loop's first instruction.
	ff := flat(t, []wasm.ValueType{wasm.I32}, nil,
		i(wasm.OpLoop, wasm.BlockEmpty),
		i(wasm.OpLocalGet, 0),
		i(wasm.OpBrIf, 0),
		i(wasm.OpEnd))
	var br *flatten.Instr
	for k := range ff.Code {
		if ff.Code[k].Op == flatten.OpBranchIf {
			br = &ff.Code[k]
		}
	}
	if br == nil {
		t.Fatal("no branch emitted")
	}
	if br.Tgt != 0 {
		t.Errorf("loop back-edge targets pc %d, want 0", br.Tgt)
	}
}

func TestDeadCodeElided(t *testing.T) {
	// Everything after return is dead and must not be emitted.
	ff := flat(t, nil, []wasm.ValueType{wasm.I32},
		i(wasm.OpI32Const, 1),
		i(wasm.OpReturn),
		i(wasm.OpI32Const, 2),
		i(wasm.OpI32Const, 3),
		i(wasm.OpI32Add),
		i(wasm.OpDrop),
		i(wasm.OpI32Const, 9))
	count := 0
	for k := range ff.Code {
		if ff.Code[k].Op == wasm.OpI32Const {
			count++
		}
	}
	if count != 1 {
		t.Errorf("%d consts emitted, want 1 (dead code)", count)
	}
}

func TestIfElseTargets(t *testing.T) {
	// if (c) {A} else {B}: the if-false edge targets B's first
	// instruction; A's tail jump targets the join.
	ff := flat(t, []wasm.ValueType{wasm.I32}, []wasm.ValueType{wasm.I32},
		i(wasm.OpLocalGet, 0),
		i(wasm.OpIf, uint64(wasm.I32)),
		i(wasm.OpI32Const, 10),
		i(wasm.OpElse),
		i(wasm.OpI32Const, 20),
		i(wasm.OpEnd))
	var ifFalse, jump *flatten.Instr
	for k := range ff.Code {
		switch ff.Code[k].Op {
		case flatten.OpIfFalse:
			ifFalse = &ff.Code[k]
		case flatten.OpJump:
			jump = &ff.Code[k]
		}
	}
	if ifFalse == nil || jump == nil {
		t.Fatal("missing control instructions")
	}
	if ff.Code[ifFalse.Tgt].Op != wasm.OpI32Const || ff.Code[ifFalse.Tgt].A != 20 {
		t.Errorf("ifFalse target wrong: %v", ff.Code[ifFalse.Tgt])
	}
	if int(jump.Tgt) != len(ff.Code)-1 {
		t.Errorf("then-jump target %d, want join at %d", jump.Tgt, len(ff.Code)-1)
	}
}

func TestBrTableDefaultLast(t *testing.T) {
	ff := flatTables(t, []wasm.ValueType{wasm.I32}, nil, []uint32{0, 1, 1},
		i(wasm.OpBlock, wasm.BlockEmpty),
		i(wasm.OpBlock, wasm.BlockEmpty),
		i(wasm.OpLocalGet, 0),
		wasm.Instr{Op: wasm.OpBrTable, A: 0, B: 3},
		i(wasm.OpEnd),
		// Live code between the two ends so the depths resolve to
		// distinct pcs.
		i(wasm.OpI32Const, 5),
		i(wasm.OpDrop),
		i(wasm.OpEnd))
	var bt *flatten.Instr
	for k := range ff.Code {
		if ff.Code[k].Op == wasm.OpBrTable {
			bt = &ff.Code[k]
		}
	}
	if bt == nil {
		t.Fatal("no br_table emitted")
	}
	if bt.A != 0 || bt.B != 3 || len(ff.Targets) != 3 { // 2 targets + default
		t.Fatalf("entries [%d, %d+%d) of a %d-entry side table", bt.A, bt.A, bt.B, len(ff.Targets))
	}
	// Targets 0 and default (depth 1) resolve to ends at different
	// depths; all must be within code bounds.
	for k, e := range ff.Targets {
		if int(e.Tgt) < 0 || int(e.Tgt) >= len(ff.Code) {
			t.Errorf("entry %d target %d out of bounds", k, e.Tgt)
		}
	}
	if ff.Targets[0].Tgt == ff.Targets[1].Tgt {
		t.Error("distinct depths resolved to the same target")
	}
}

// TestInstrIsCompact pins the stream's layout: an Instr is 32 bytes,
// and neither it nor a side-table entry holds a pointer, so a stream is
// two instructions a cache line and the collector never scans one.
func TestInstrIsCompact(t *testing.T) {
	if n := unsafe.Sizeof(flatten.Instr{}); n != 32 {
		t.Errorf("flatten.Instr is %d bytes, want 32", n)
	}
	for _, typ := range []reflect.Type{reflect.TypeFor[flatten.Instr](), reflect.TypeFor[flatten.BranchTarget]()} {
		for k := range typ.NumField() {
			if f := typ.Field(k); !pointerFree(f.Type) {
				t.Errorf("%s.%s (%s) holds a pointer", typ, f.Name, f.Type)
			}
		}
	}
}

// pointerFree reports whether no value of typ holds a pointer.
func pointerFree(typ reflect.Type) bool {
	switch k := typ.Kind(); {
	case k >= reflect.Bool && k <= reflect.Complex128:
		return true
	case k == reflect.Array:
		return pointerFree(typ.Elem())
	case k == reflect.Struct:
		for i := range typ.NumField() {
			if !pointerFree(typ.Field(i).Type) {
				return false
			}
		}
		return true
	}
	return false
}

func TestMaxStackCoversNesting(t *testing.T) {
	ff := flat(t, nil, []wasm.ValueType{wasm.I32},
		i(wasm.OpI32Const, 1),
		i(wasm.OpI32Const, 2),
		i(wasm.OpI32Const, 3),
		i(wasm.OpI32Const, 4),
		i(wasm.OpI32Add),
		i(wasm.OpI32Add),
		i(wasm.OpI32Add))
	if ff.MaxStack < 4 {
		t.Errorf("MaxStack %d, want >= 4", ff.MaxStack)
	}
}

func TestClassifyCoverage(t *testing.T) {
	// Every load/store and a sample of numeric ops classify.
	for op := wasm.OpI32Load; op <= wasm.OpI64Store32; op++ {
		if _, _, ok := flatten.Classify(op); !ok {
			t.Errorf("opcode %v unclassified", op)
		}
	}
	for _, op := range []wasm.Opcode{
		wasm.OpI32Add, wasm.OpI64DivU, wasm.OpF32Sqrt, wasm.OpF64Max,
		wasm.OpI32TruncF64S, wasm.OpI64Extend32S, wasm.OpF64ReinterpretI64,
	} {
		if _, _, ok := flatten.Classify(op); !ok {
			t.Errorf("opcode %v unclassified", op)
		}
	}
	if _, _, ok := flatten.Classify(wasm.OpCall); ok {
		t.Error("call should not classify as numeric")
	}
}
