package interp_test

import (
	"math"
	"testing"

	"leapsandbounds/internal/compiled"
	"leapsandbounds/internal/core"
	"leapsandbounds/internal/difftest"
	"leapsandbounds/internal/interp"
	"leapsandbounds/internal/isa"
	"leapsandbounds/internal/mem"
	"leapsandbounds/internal/wasm"
)

// opModule is one module whose export "f" is called on every tuple of
// args in turn, on one instance per engine.
type opModule struct {
	name string
	m    *wasm.Module
	args [][]uint64
}

var (
	i32Vals = []uint64{0, 1, 7, 31, 33, 0x7fffffff, 0x80000000, 0xffffffff}
	i64Vals = []uint64{0, 1, 7, 63, 65, 0xffffffff, 1 << 63, 1<<63 - 1, math.MaxUint64}
	f32Vals = []uint64{f32b(0), f32b(float32(math.Copysign(0, -1))), f32b(0.5), f32b(1.5), f32b(-2.5),
		f32b(3e9), f32b(-3e9), f32b(2.5e19), f32b(float32(math.NaN())), f32b(float32(math.Inf(1))), f32b(float32(math.Inf(-1)))}
	f64Vals = []uint64{math.Float64bits(0), math.Float64bits(math.Copysign(0, -1)), math.Float64bits(0.5),
		math.Float64bits(1.5), math.Float64bits(-2.5), math.Float64bits(3e9), math.Float64bits(-3e9),
		math.Float64bits(1e20), math.Float64bits(-1e19), math.Float64bits(math.NaN()),
		math.Float64bits(math.Inf(1)), math.Float64bits(math.Inf(-1))}
	// addrs straddle both ends of the one-page memory; loads and stores
	// add a static offset of 2.
	addrs = []uint64{0, 1, 5, 65517, 65526, 65530, 65532, 65533, 65534, 65536, 0xfffffffe, 0xffffffff}
)

func f32b(f float32) uint64 { return uint64(math.Float32bits(f)) }

func valsOf(t wasm.ValueType) []uint64 {
	switch t {
	case wasm.I32:
		return i32Vals
	case wasm.I64:
		return i64Vals
	case wasm.F32:
		return f32Vals
	default:
		return f64Vals
	}
}

// tuples is the cross product of the value sets of params.
func tuples(params ...wasm.ValueType) [][]uint64 {
	out := [][]uint64{nil}
	for _, p := range params {
		var next [][]uint64
		for _, prefix := range out {
			for _, v := range valsOf(p) {
				next = append(next, append(append([]uint64(nil), prefix...), v))
			}
		}
		out = next
	}
	return out
}

// opFunc builds a module with one exported function f(params) result
// over a one-page memory (growable to two) whose first and last 16
// bytes hold data.
func opFunc(params []wasm.ValueType, result wasm.ValueType, locals []wasm.ValueType, body ...wasm.Instr) *wasm.Module {
	lo, hi := make([]byte, 16), make([]byte, 16)
	for i := range lo {
		lo[i], hi[i] = byte(0x80+i), byte(0xf0+i)
	}
	return &wasm.Module{
		Types: []wasm.FuncType{{Params: params, Results: []wasm.ValueType{result}}},
		Funcs: []uint32{0},
		Mems:  []wasm.MemoryType{{Limits: wasm.Limits{Min: 1, Max: 2, HasMax: true}}},
		Code:  []wasm.Code{{Locals: locals, Body: append(body, wasm.Instr{Op: wasm.OpEnd})}},
		Data: []wasm.DataSegment{
			{Offset: wasm.ConstExpr{Op: wasm.OpI32Const, Value: 0}, Data: lo},
			{Offset: wasm.ConstExpr{Op: wasm.OpI32Const, Value: 65520}, Data: hi},
		},
		Exports: []wasm.Export{{Name: "f", Kind: wasm.ExternFunc, Index: 0}},
	}
}

func op(o wasm.Opcode, a ...uint64) wasm.Instr {
	in := wasm.Instr{Op: o}
	if len(a) > 0 {
		in.A = a[0]
	}
	return in
}

func mem2(o wasm.Opcode, offset uint32) wasm.Instr { return wasm.Instr{Op: o, B: offset} }

func prefixed(sub wasm.SubOpcode) wasm.Instr { return wasm.Instr{Op: wasm.OpPrefix, Sub: sub} }

// memImage folds the first and last 8 bytes of the page into an i64.
var memImage = []wasm.Instr{
	op(wasm.OpI32Const, 0), mem2(wasm.OpI64Load, 0),
	op(wasm.OpI32Const, 0), mem2(wasm.OpI64Load, 65528),
	op(wasm.OpI64Xor),
}

// numericSig is the signature of a numeric opcode outside the
// conversion table.
func numericSig(o wasm.Opcode) (params []wasm.ValueType, result wasm.ValueType) {
	i32, i64, f32, f64 := wasm.I32, wasm.I64, wasm.F32, wasm.F64
	un := func(t, r wasm.ValueType) ([]wasm.ValueType, wasm.ValueType) { return []wasm.ValueType{t}, r }
	bin := func(t, r wasm.ValueType) ([]wasm.ValueType, wasm.ValueType) { return []wasm.ValueType{t, t}, r }
	switch {
	case o == wasm.OpI32Eqz:
		return un(i32, i32)
	case o <= wasm.OpI32GeU:
		return bin(i32, i32)
	case o == wasm.OpI64Eqz:
		return un(i64, i32)
	case o <= wasm.OpI64GeU:
		return bin(i64, i32)
	case o <= wasm.OpF32Ge:
		return bin(f32, i32)
	case o <= wasm.OpF64Ge:
		return bin(f64, i32)
	case o <= wasm.OpI32Popcnt:
		return un(i32, i32)
	case o <= wasm.OpI32Rotr:
		return bin(i32, i32)
	case o <= wasm.OpI64Popcnt:
		return un(i64, i64)
	case o <= wasm.OpI64Rotr:
		return bin(i64, i64)
	case o <= wasm.OpF32Sqrt:
		return un(f32, f32)
	case o <= wasm.OpF32Copysign:
		return bin(f32, f32)
	case o <= wasm.OpF64Sqrt:
		return un(f64, f64)
	default:
		return bin(f64, f64)
	}
}

// opModules returns modules that between them reach every opcode the
// validator accepts in a function body.
func opModules() []opModule {
	i32, i64, f32, f64 := wasm.I32, wasm.I64, wasm.F32, wasm.F64
	vt := func(ts ...wasm.ValueType) []wasm.ValueType { return ts }
	var out []opModule
	add := func(name string, m *wasm.Module, args [][]uint64) {
		out = append(out, opModule{name, m, args})
	}

	// Numeric ops: every operand from a parameter.
	for o := wasm.OpI32Eqz; o <= wasm.OpF64Copysign; o++ {
		params, result := numericSig(o)
		var body []wasm.Instr
		for i := range params {
			body = append(body, op(wasm.OpLocalGet, uint64(i)))
		}
		add(o.String(), opFunc(params, result, nil, append(body, op(o))...), tuples(params...))
	}
	// Conversions and sign extensions.
	conv := []struct {
		o        wasm.Opcode
		from, to wasm.ValueType
	}{
		{wasm.OpI32WrapI64, i64, i32}, {wasm.OpI32TruncF32S, f32, i32}, {wasm.OpI32TruncF32U, f32, i32},
		{wasm.OpI32TruncF64S, f64, i32}, {wasm.OpI32TruncF64U, f64, i32}, {wasm.OpI64ExtendI32S, i32, i64},
		{wasm.OpI64ExtendI32U, i32, i64}, {wasm.OpI64TruncF32S, f32, i64}, {wasm.OpI64TruncF32U, f32, i64},
		{wasm.OpI64TruncF64S, f64, i64}, {wasm.OpI64TruncF64U, f64, i64}, {wasm.OpF32ConvertI32S, i32, f32},
		{wasm.OpF32ConvertI32U, i32, f32}, {wasm.OpF32ConvertI64S, i64, f32}, {wasm.OpF32ConvertI64U, i64, f32},
		{wasm.OpF32DemoteF64, f64, f32}, {wasm.OpF64ConvertI32S, i32, f64}, {wasm.OpF64ConvertI32U, i32, f64},
		{wasm.OpF64ConvertI64S, i64, f64}, {wasm.OpF64ConvertI64U, i64, f64}, {wasm.OpF64PromoteF32, f32, f64},
		{wasm.OpI32ReinterpretF32, f32, i32}, {wasm.OpI64ReinterpretF64, f64, i64},
		{wasm.OpF32ReinterpretI32, i32, f32}, {wasm.OpF64ReinterpretI64, i64, f64},
		{wasm.OpI32Extend8S, i32, i32}, {wasm.OpI32Extend16S, i32, i32},
		{wasm.OpI64Extend8S, i64, i64}, {wasm.OpI64Extend16S, i64, i64}, {wasm.OpI64Extend32S, i64, i64},
	}
	for _, c := range conv {
		add(c.o.String(), opFunc(vt(c.from), c.to, nil, op(wasm.OpLocalGet, 0), op(c.o)), tuples(c.from))
	}
	// Saturating truncations.
	sat := []struct {
		sub      wasm.SubOpcode
		from, to wasm.ValueType
	}{
		{wasm.SubI32TruncSatF32S, f32, i32}, {wasm.SubI32TruncSatF32U, f32, i32},
		{wasm.SubI32TruncSatF64S, f64, i32}, {wasm.SubI32TruncSatF64U, f64, i32},
		{wasm.SubI64TruncSatF32S, f32, i64}, {wasm.SubI64TruncSatF32U, f32, i64},
		{wasm.SubI64TruncSatF64S, f64, i64}, {wasm.SubI64TruncSatF64U, f64, i64},
	}
	for _, c := range sat {
		add(c.sub.String(), opFunc(vt(c.from), c.to, nil, op(wasm.OpLocalGet, 0), prefixed(c.sub)), tuples(c.from))
	}
	// Loads of every width and sign, at both ends of memory.
	loadTo := func(o wasm.Opcode) wasm.ValueType {
		switch {
		case o == wasm.OpF32Load:
			return f32
		case o == wasm.OpF64Load:
			return f64
		case o == wasm.OpI32Load || (o >= wasm.OpI32Load8S && o <= wasm.OpI32Load16U):
			return i32
		default:
			return i64
		}
	}
	var addrArgs [][]uint64
	for _, a := range addrs {
		addrArgs = append(addrArgs, []uint64{a})
	}
	for o := wasm.OpI32Load; o <= wasm.OpI64Load32U; o++ {
		add(o.String(), opFunc(vt(i32), loadTo(o), nil, op(wasm.OpLocalGet, 0), mem2(o, 2)), addrArgs)
	}
	// Stores of every width, then the memory image.
	storeOf := map[wasm.Opcode]wasm.ValueType{
		wasm.OpI32Store: i32, wasm.OpI64Store: i64, wasm.OpF32Store: f32, wasm.OpF64Store: f64,
		wasm.OpI32Store8: i32, wasm.OpI32Store16: i32, wasm.OpI64Store8: i64, wasm.OpI64Store16: i64, wasm.OpI64Store32: i64,
	}
	for o := wasm.OpI32Store; o <= wasm.OpI64Store32; o++ {
		var args [][]uint64
		for _, a := range addrs {
			args = append(args, []uint64{a, 0x8182838485868788 >> (64 - 8*o.AccessWidth())})
		}
		body := append([]wasm.Instr{op(wasm.OpLocalGet, 0), op(wasm.OpLocalGet, 1), mem2(o, 2)}, memImage...)
		add(o.String(), opFunc(vt(i32, storeOf[o]), i64, nil, body...), args)
	}
	// memory.grow and memory.size: the old size and the new one.
	add("memory.grow", opFunc(vt(i32), i32, nil,
		op(wasm.OpLocalGet, 0), op(wasm.OpMemoryGrow), op(wasm.OpMemorySize),
		op(wasm.OpI32Const, 16), op(wasm.OpI32Shl), op(wasm.OpI32Or),
	), [][]uint64{{0}, {1}, {1}, {0xffffffff}, {0}})
	// memory.copy and memory.fill, in bounds, overlapping and past the end.
	bulk := func(sub wasm.SubOpcode) *wasm.Module {
		body := []wasm.Instr{op(wasm.OpLocalGet, 0), op(wasm.OpLocalGet, 1), op(wasm.OpLocalGet, 2), prefixed(sub)}
		return opFunc(vt(i32, i32, i32), i64, nil, append(body, memImage...)...)
	}
	add("memory.copy", bulk(wasm.SubMemoryCopy), [][]uint64{
		{8, 0, 8}, {0, 65520, 16}, {1, 0, 15}, {65530, 0, 6}, {65530, 0, 7}, {0, 65536, 0}, {0, 65536, 1}, {0xffffffff, 0, 0}})
	add("memory.fill", bulk(wasm.SubMemoryFill), [][]uint64{
		{0, 0x5a, 8}, {65528, 0x1ff, 8}, {65530, 1, 7}, {65536, 1, 0}, {65537, 1, 0}, {4, 0xab, 0}})
	// select, drop, locals and globals.
	add("select", opFunc(vt(i32, i32, i32), i32, nil,
		op(wasm.OpLocalGet, 0), op(wasm.OpLocalGet, 1), op(wasm.OpLocalGet, 2), op(wasm.OpSelect),
	), [][]uint64{{1, 2, 0}, {1, 2, 1}, {1, 2, 0x80000000}})
	add("drop", opFunc(vt(i32, i32), i32, nil, op(wasm.OpLocalGet, 0), op(wasm.OpLocalGet, 1), op(wasm.OpDrop)), tuples(i32, i32))
	add("locals", opFunc(vt(i32), i32, vt(i32),
		op(wasm.OpLocalGet, 0), op(wasm.OpI32Const, 3), op(wasm.OpI32Mul), op(wasm.OpLocalTee, 1),
		op(wasm.OpLocalGet, 1), op(wasm.OpI32Add), op(wasm.OpLocalSet, 0), op(wasm.OpLocalGet, 0),
	), tuples(i32))
	globals := opFunc(vt(i32), i32, nil,
		op(wasm.OpGlobalGet, 0), op(wasm.OpLocalGet, 0), op(wasm.OpI32Add), op(wasm.OpGlobalSet, 0),
		op(wasm.OpGlobalGet, 0), op(wasm.OpI64Const, 1<<40), op(wasm.OpF32Const, f32b(2)), op(wasm.OpF64Const, 0),
		op(wasm.OpDrop), op(wasm.OpDrop), op(wasm.OpDrop),
	)
	globals.Globals = []wasm.Global{{Type: wasm.GlobalType{Type: i32, Mutable: true}, Init: wasm.ConstExpr{Op: wasm.OpI32Const, Value: 5}}}
	add("globals", globals, tuples(i32))
	// Structured control: if/else, unreachable, return, nop, a counted
	// loop left by br_if, and a br carrying a value out of a block.
	add("control", opFunc(vt(i32), i32, vt(i32),
		op(wasm.OpBlock, uint64(i32)),
		op(wasm.OpLocalGet, 0), op(wasm.OpI32Const, 3), op(wasm.OpI32Eq), op(wasm.OpIf, wasm.BlockEmpty), op(wasm.OpUnreachable), op(wasm.OpEnd),
		op(wasm.OpLocalGet, 0), op(wasm.OpI32Const, 4), op(wasm.OpI32Eq), op(wasm.OpIf, wasm.BlockEmpty),
		op(wasm.OpI32Const, 44), op(wasm.OpReturn), op(wasm.OpEnd),
		op(wasm.OpNop),
		op(wasm.OpLocalGet, 0), op(wasm.OpI32Const, 7), op(wasm.OpI32And), op(wasm.OpLocalSet, 0),
		op(wasm.OpBlock, wasm.BlockEmpty), op(wasm.OpLoop, wasm.BlockEmpty),
		op(wasm.OpLocalGet, 0), op(wasm.OpI32Eqz), op(wasm.OpBrIf, 1),
		op(wasm.OpLocalGet, 1), op(wasm.OpLocalGet, 0), op(wasm.OpI32Add), op(wasm.OpLocalSet, 1),
		op(wasm.OpLocalGet, 0), op(wasm.OpI32Const, 1), op(wasm.OpI32Sub), op(wasm.OpLocalSet, 0),
		op(wasm.OpBr, 0),
		op(wasm.OpEnd), op(wasm.OpEnd),
		op(wasm.OpLocalGet, 1),
		op(wasm.OpLocalGet, 1), op(wasm.OpI32Const, 10), op(wasm.OpI32GtU),
		op(wasm.OpIf, uint64(i32)), op(wasm.OpI32Const, 1000), op(wasm.OpElse), op(wasm.OpI32Const, 2000), op(wasm.OpEnd),
		op(wasm.OpI32Add),
		op(wasm.OpBr, 0),
		op(wasm.OpEnd),
	), tuples(i32))
	// br_table carrying a value to each of three targets.
	brTable := opFunc(vt(i32), i32, nil,
		op(wasm.OpBlock, uint64(i32)), op(wasm.OpBlock, uint64(i32)), op(wasm.OpBlock, uint64(i32)),
		op(wasm.OpI32Const, 10), op(wasm.OpLocalGet, 0),
		wasm.Instr{Op: wasm.OpBrTable, A: 0, B: 3},
		op(wasm.OpEnd), op(wasm.OpI32Const, 1), op(wasm.OpI32Add),
		op(wasm.OpEnd), op(wasm.OpI32Const, 3), op(wasm.OpI32Mul),
		op(wasm.OpEnd),
	)
	brTable.Code[0].Targets = []uint32{0, 1, 2}
	add("br_table", brTable, tuples(i32))
	// call and call_indirect: f(x) = table[x](30, 12) + g(x), with a
	// slot of the wrong type, a null slot and slots past the table.
	calls := opFunc(vt(i32), i32, nil,
		op(wasm.OpI32Const, 30), op(wasm.OpI32Const, 12), op(wasm.OpLocalGet, 0), op(wasm.OpCallIndirect, 1),
		op(wasm.OpLocalGet, 0), op(wasm.OpCall, 1), op(wasm.OpI32Add),
	)
	binop := func(o wasm.Opcode) wasm.Code {
		return wasm.Code{Body: []wasm.Instr{op(wasm.OpLocalGet, 0), op(wasm.OpLocalGet, 1), op(o), op(wasm.OpEnd)}}
	}
	calls.Types = append(calls.Types, wasm.FuncType{Params: vt(i32, i32), Results: vt(i32)}, wasm.FuncType{Results: vt(i64)})
	calls.Funcs = []uint32{0, 0, 1, 1, 2}
	calls.Code = append(calls.Code,
		wasm.Code{Body: []wasm.Instr{op(wasm.OpLocalGet, 0), op(wasm.OpI32Const, 5), op(wasm.OpI32Mul), op(wasm.OpEnd)}},
		binop(wasm.OpI32Add), binop(wasm.OpI32Sub),
		wasm.Code{Body: []wasm.Instr{op(wasm.OpI64Const, 9), op(wasm.OpEnd)}},
	)
	calls.Tables = []wasm.TableType{{Elem: wasm.Funcref, Limits: wasm.Limits{Min: 4}}}
	calls.Elems = []wasm.ElemSegment{{Offset: wasm.ConstExpr{Op: wasm.OpI32Const, Value: 0}, Funcs: []uint32{2, 3, 4}}}
	add("calls", calls, [][]uint64{{0}, {1}, {2}, {3}, {4}, {0xffffffff}})
	return out
}

// TestInterpEveryOpcode runs every opcode the validator accepts in a
// body through the interpreter's plain stream and its instrumented
// stream (CountCycles), and holds each result, trap kind and trap text
// (which carries the faulting offset) to wavm's.
func TestInterpEveryOpcode(t *testing.T) {
	mods := opModules()
	// Every named opcode and prefixed op appears in some body.
	type opSub struct {
		op  wasm.Opcode
		sub wasm.SubOpcode
	}
	seen := map[opSub]bool{}
	for _, om := range mods {
		for _, code := range om.m.Code {
			for _, in := range code.Body {
				seen[opSub{in.Op, in.Sub}] = true
			}
		}
	}
	for o := 0; o < 256; o++ {
		if name := wasm.Opcode(o).String(); name[0] != 'o' && wasm.Opcode(o) != wasm.OpPrefix && !seen[opSub{op: wasm.Opcode(o)}] {
			t.Errorf("no module reaches %s", name)
		}
	}
	for sub := wasm.SubOpcode(0); sub < 16; sub++ {
		if name := sub.String(); name[0] != 's' && !seen[opSub{wasm.OpPrefix, sub}] {
			t.Errorf("no module reaches %s", name)
		}
	}

	cfg := core.Config{Profile: isa.X86_64(), Strategy: mem.Trap}
	counted := cfg
	counted.CountCycles = true
	for _, om := range mods {
		wavm := opInstance(t, compiled.NewWAVM(), om, cfg)
		plain := opInstance(t, interp.NewWasm3(), om, cfg)
		instr := opInstance(t, interp.NewWasm3(), om, counted)
		for _, args := range om.args {
			want := opCall(t, wavm, args)
			for name, inst := range map[string]core.Instance{"plain": plain, "instrumented": instr} {
				if got := opCall(t, inst, args); got != want {
					t.Errorf("%s%v, %s stream: %+v, wavm %+v", om.name, args, name, got, want)
				}
			}
		}
	}
}

func opInstance(t *testing.T, e core.Engine, om opModule, cfg core.Config) core.Instance {
	t.Helper()
	cm, err := e.Compile(om.m)
	if err != nil {
		t.Fatalf("%s: %s: %v", om.name, e.Name(), err)
	}
	inst, err := cm.Instantiate(cfg, nil)
	if err != nil {
		t.Fatalf("%s: %s: %v", om.name, e.Name(), err)
	}
	t.Cleanup(func() { inst.Close() })
	return inst
}

func opCall(t *testing.T, inst core.Instance, args []uint64) difftest.Outcome {
	return difftest.Run(t, inst, "f", difftest.Call{Export: "f", Args: args})
}

// TestInterpStackGrowsUnderCall recurses until the value stack is
// reallocated several times past its initial 4096 slots, while every
// caller holds an operand and its locals across the call. A caller
// that kept reading the stack it had before the call would add stale
// slots.
func TestInterpStackGrowsUnderCall(t *testing.T) {
	i32 := wasm.I32
	locals := make([]wasm.ValueType, 24)
	for i := range locals {
		locals[i] = i32
	}
	// rec(n) = n == 0 ? 0 : 3n + (n + rec(n-1)) + local[24], with
	// local[24] = 2n set before the call.
	m := opFunc([]wasm.ValueType{i32}, i32, locals,
		op(wasm.OpLocalGet, 0), op(wasm.OpI32Eqz), op(wasm.OpIf, wasm.BlockEmpty),
		op(wasm.OpI32Const, 0), op(wasm.OpReturn), op(wasm.OpEnd),
		op(wasm.OpLocalGet, 0), op(wasm.OpI32Const, 2), op(wasm.OpI32Mul), op(wasm.OpLocalSet, 24),
		op(wasm.OpLocalGet, 0), op(wasm.OpI32Const, 3), op(wasm.OpI32Mul),
		op(wasm.OpLocalGet, 0),
		op(wasm.OpLocalGet, 0), op(wasm.OpI32Const, 1), op(wasm.OpI32Sub), op(wasm.OpCall, 0),
		op(wasm.OpI32Add), op(wasm.OpI32Add),
		op(wasm.OpLocalGet, 24), op(wasm.OpI32Add),
	)
	const n = 900
	want := uint64(6 * n * (n + 1) / 2)
	for _, count := range []bool{false, true} {
		cm, err := interp.NewWasm3().Compile(m)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := cm.Instantiate(core.Config{Profile: isa.X86_64(), CountCycles: count}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ { // the second run starts on the grown stack
			res, err := inst.Invoke("f", n)
			if err != nil || res[0] != want {
				t.Errorf("CountCycles=%v, run %d: rec(%d) = %v, %v; want %d", count, i, n, res, err, want)
			}
		}
		inst.Close()
	}
}
