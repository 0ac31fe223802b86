package interp_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"leapsandbounds/internal/compiled"
	"leapsandbounds/internal/core"
	"leapsandbounds/internal/difftest"
	"leapsandbounds/internal/flatten"
	"leapsandbounds/internal/interp"
	"leapsandbounds/internal/isa"
	"leapsandbounds/internal/mem"
	"leapsandbounds/internal/validate"
	"leapsandbounds/internal/wasm"
	g "leapsandbounds/internal/wasmgen"
	"leapsandbounds/internal/workloads"
)

// A program is one of the wasmgen modules interp_test.go builds, with
// the calls its test makes, in order.
type program struct {
	name    string
	build   func() *g.ModuleBuilder
	imports func() core.Imports
	calls   []difftest.Call
}

func calls(export string, args ...[]uint64) []difftest.Call {
	var out []difftest.Call
	for _, a := range args {
		out = append(out, difftest.Call{Export: export, Args: a})
	}
	return out
}

func programs() []program {
	a := func(v ...uint64) []uint64 { return v }
	return []program{
		{"sumsq", sumsqModule, nil, calls("sumsq", a(10), a(0))},
		{"fib", fibModule, nil, calls("fib", a(20))},
		{"kernel", kernelModule, nil, calls("kernel", a(100))},
		{"dot", dotModule, nil, calls("dot", a(10))},
		{"count", countModule, nil, calls("count", a(1000), a(10))},
		{"sumdown", sumdownModule, nil, calls("sumdown", a(5, 3), a(2, 9), a(7, 7))},
		{"maxg", maxgModule, nil, calls("maxg", a(3), a(11), a(5))},
		{"dispatch", dispatchModule, nil, calls("dispatch", a(0, 30, 12), a(1, 30, 12), a(9, 1, 1))},
		{"grow", growModule, nil, calls("grow", a(2), a(100))},
		{"bulk", bulkModule, nil, append(calls("get", a(0), a(10)), difftest.Call{Export: "copyout"}, difftest.Call{Export: "fill"})},
		{"traps", trapsModule, nil, append(calls("div", a(84, 2), a(1, 0)), difftest.Call{Export: "boom"}, difftest.Call{Export: "div", Args: a(10, 5)})},
		{"inf", infModule, nil, calls("inf", a(0))},
		{"host", hostModule, hostImports, calls("go", a(21))},
		{"loop", loopModule, nil, calls("loop", a(1000))},
		{"peek", peekModule, nil, calls("peek", a(1<<20), a(4))},
		{"churn", churnModule, nil, calls("churn", a(4000))},
	}
}

// An interpConfig is one engine and strategy the interpreter's tests
// hold to one result.
type interpConfig struct {
	name     string
	eng      *interp.Engine
	strategy mem.Strategy
}

// interpConfigs are wasm3 and the configurable interpreter under each
// strategy.
func interpConfigs() []interpConfig {
	out := []interpConfig{{"wasm3", interp.NewWasm3(), mem.Trap}}
	for _, s := range mem.Strategies() {
		out = append(out, interpConfig{"interp-" + s.String(), interp.NewConfigurable(), s})
	}
	return out
}

// TestFoldedMatchesUnfolded runs every registered workload at class
// Test, every wasmgen program of interp_test.go and tablesModule's
// br_tables on the plain
// (fused) streams and on the instrumented (unfused) ones, under wasm3
// and the configurable interpreter with each strategy: results, trap
// kinds and offsets, and the final memory image must agree.
func TestFoldedMatchesUnfolded(t *testing.T) {
	type subject struct {
		name    string
		m       *wasm.Module
		imports func() core.Imports
		calls   []difftest.Call
	}
	var subjects []subject
	for _, spec := range workloads.All() {
		m, _ := spec.Build(workloads.Test)
		var imports func() core.Imports
		if spec.NewEnv != nil {
			imports = func() core.Imports { return spec.NewEnv(workloads.Test).Imports() }
		}
		subjects = append(subjects, subject{spec.Name, m, imports, []difftest.Call{{Export: workloads.Entry}}})
	}
	for _, p := range programs() {
		m, err := p.build().Module()
		if err != nil {
			t.Fatal(err)
		}
		subjects = append(subjects, subject{p.name, m, p.imports, p.calls})
	}
	// Neither holds a br_table, so a misplaced side-table entry in one
	// stream shows only on tablesModule.
	tables := tablesModule(4)
	var tableCalls []difftest.Call
	for _, e := range tables.Exports {
		for _, a := range []uint64{0, 1, 2, 3} {
			tableCalls = append(tableCalls, difftest.Call{Export: e.Name, Args: []uint64{a}})
		}
	}
	subjects = append(subjects, subject{"br_tables", tables, nil, tableCalls})
	for _, sub := range subjects {
		for _, c := range interpConfigs() {
			cm, err := c.eng.Compile(sub.m)
			if err != nil {
				t.Fatalf("%s %s: %v", sub.name, c.name, err)
			}
			var got [2]difftest.Outcome
			for i, stream := range []string{"plain", "instrumented"} {
				var imports core.Imports
				if sub.imports != nil {
					imports = sub.imports()
				}
				cfg := core.Config{Profile: isa.X86_64(), Strategy: c.strategy, CountCycles: stream == "instrumented"}
				inst, err := cm.Instantiate(cfg, imports)
				if err != nil {
					t.Fatal(err)
				}
				got[i] = difftest.Run(t, inst, fmt.Sprintf("%s %s, %s stream", sub.name, c.name, stream), sub.calls...)
				inst.Close()
			}
			if got[0] != got[1] {
				t.Errorf("%s %s: plain stream %+v, instrumented stream %+v", sub.name, c.name, got[0], got[1])
			}
		}
	}
}

// TestFoldRules holds each fold rule to the unfused stream and to
// wavm: the rule fires (or, across a branch target, does not), and the
// function computes the same on every argument. Between them the
// cases reach every private opcode.
func TestFoldRules(t *testing.T) {
	i32, i64 := wasm.I32, wasm.I64
	get := func(x uint64) wasm.Instr { return op(wasm.OpLocalGet, x) }
	set := func(x uint64) wasm.Instr { return op(wasm.OpLocalSet, x) }
	c32 := func(v uint64) wasm.Instr { return op(wasm.OpI32Const, v) }
	c64 := func(v uint64) wasm.Instr { return op(wasm.OpI64Const, v) }
	seq := func(ins ...wasm.Instr) []wasm.Instr { return ins }
	// popcnt behind a local.get leaves a value no window takes in.
	pop := seq(get(0), op(wasm.OpI32Popcnt))
	pop64 := seq(get(2), op(wasm.OpI64Popcnt))
	type rule struct {
		name   string
		body   []wasm.Instr
		want   wasm.Opcode
		result wasm.ValueType
	}
	F := interp.Fused
	rules := []rule{
		{"i32.const into i32.add", slices.Concat(pop, seq(c32(5), op(wasm.OpI32Add))), F("I", wasm.OpI32Add), i32},
		{"i32.const into i32.sub", slices.Concat(pop, seq(c32(5), op(wasm.OpI32Sub))), F("I", wasm.OpI32Sub), i32},
		{"i32.const into i32.mul", slices.Concat(pop, seq(c32(0x80000001), op(wasm.OpI32Mul))), F("I", wasm.OpI32Mul), i32},
		{"i32.const into i32.shl", slices.Concat(pop, seq(c32(35), op(wasm.OpI32Shl))), F("I", wasm.OpI32Shl), i32},
		{"i32.const into i32.and", slices.Concat(pop, seq(c32(0xff0), op(wasm.OpI32And))), F("I", wasm.OpI32And), i32},
		{"i64.const into i64.add", slices.Concat(pop64, seq(c64(1<<40), op(wasm.OpI64Add))), F("I", wasm.OpI64Add), i64},
		{"i64.const into i64.mul", slices.Concat(pop64, seq(c64(1<<63+3), op(wasm.OpI64Mul))), F("I", wasm.OpI64Mul), i64},
		{"local.get; i32.const; i32.add", seq(get(0), c32(7), op(wasm.OpI32Add)), F("LI", wasm.OpI32Add), i32},
		{"local.get; i32.const; i32.sub", seq(get(0), c32(7), op(wasm.OpI32Sub)), F("LI", wasm.OpI32Sub), i32},
		{"local.get; i32.const; i32.mul", seq(get(0), c32(0xfffffff9), op(wasm.OpI32Mul)), F("LI", wasm.OpI32Mul), i32},
		{"local.get; i32.const; i32.shl", seq(get(0), c32(3), op(wasm.OpI32Shl)), F("LI", wasm.OpI32Shl), i32},
		{"local.get; i32.const; i32.and", seq(get(0), c32(0x8000000f), op(wasm.OpI32And)), F("LI", wasm.OpI32And), i32},
		{"local.get; i64.const; i64.add", seq(get(2), c64(1<<64-1), op(wasm.OpI64Add)), F("LI", wasm.OpI64Add), i64},
		{"local.get; i64.const; i64.mul", seq(get(2), c64(1<<33+1), op(wasm.OpI64Mul)), F("LI", wasm.OpI64Mul), i64},
		{"local.get into i32.add", slices.Concat(pop, seq(get(1), op(wasm.OpI32Add))), F("L", wasm.OpI32Add), i32},
		{"local.get into i64.add", slices.Concat(pop64, seq(get(2), op(wasm.OpI64Add))), F("L", wasm.OpI64Add), i64},
		{"i32.add; local.set", slices.Concat(pop, pop, seq(op(wasm.OpI32Add), set(3), get(3))), F("ToL", wasm.OpI32Add), i32},
		{"i64.add; local.set", slices.Concat(pop64, pop64, seq(op(wasm.OpI64Add), set(2), get(2))), F("ToL", wasm.OpI64Add), i64},
		{"local.get x; i32.const; i32.add; local.set x", seq(get(1), c32(9), op(wasm.OpI32Add), set(1), get(1)), F("IncL", wasm.OpI32Add), i32},
		{"local.get x; i64.const; i64.add; local.set x", seq(get(2), c64(1<<62), op(wasm.OpI64Add), set(2), get(2)), F("IncL", wasm.OpI64Add), i64},
		{"local.get pair", seq(get(0), get(1), op(wasm.OpI32Xor)), interp.OpGetGet, i32},
		{"local.get; f64.const", seq(get(0), op(wasm.OpF64Const, 0x4000000000000000), op(wasm.OpDrop)), interp.OpGetConst, i32},
		{"local.set x; local.get x", slices.Concat(pop, seq(set(3), get(3))), interp.OpSetGet, i32},
		{"local.set x; local.get y", slices.Concat(pop, seq(set(3), get(1), op(wasm.OpI32Popcnt), get(3), op(wasm.OpI32Sub))), interp.OpSetGet, i32},
		// A block ends between local.get 1 and i32.const 7, so the
		// const is a branch target: local.get 1 stays alone, and the
		// const opens a window of its own.
		{"branch target on a window's second instruction", seq(
			op(wasm.OpBlock, uint64(i32)),
			get(0), get(0), op(wasm.OpBrIf, 0), op(wasm.OpDrop),
			get(1), op(wasm.OpEnd),
			c32(7), op(wasm.OpI32Add),
		), F("I", wasm.OpI32Add), i32},
	}
	// Each comparison in each operand form, consumed by a br_if that
	// leaves a block (branch when it holds) and by an if (branch when
	// it fails: the negated comparison's form).
	negated := map[wasm.Opcode]wasm.Opcode{
		wasm.OpI32Eq: wasm.OpI32Ne, wasm.OpI32Ne: wasm.OpI32Eq, wasm.OpI32LtS: wasm.OpI32GeS,
		wasm.OpI32GeS: wasm.OpI32LtS, wasm.OpI32LtU: wasm.OpI32GeU, wasm.OpI32GeU: wasm.OpI32LtU,
	}
	operands := map[string][]wasm.Instr{
		"Br":   slices.Concat(pop, seq(get(1), op(wasm.OpI32Clz))),
		"BrI":  slices.Concat(pop, seq(c32(3))),
		"BrLI": seq(get(0), c32(0xfffffffe)),
		"BrLL": seq(get(0), get(1)),
	}
	for cmp, neg := range negated {
		for form, ins := range operands {
			cond := append(slices.Clone(ins), op(cmp))
			rules = append(rules,
				rule{fmt.Sprintf("%s %s; br_if", form, cmp), slices.Concat(
					seq(op(wasm.OpBlock, wasm.BlockEmpty)), cond,
					seq(op(wasm.OpBrIf, 0), c32(200), set(3), op(wasm.OpEnd), get(3)),
				), F(form, cmp), i32},
				rule{fmt.Sprintf("%s %s; if", form, cmp), slices.Concat(
					cond, seq(op(wasm.OpIf, uint64(i32)), c32(300), op(wasm.OpElse), c32(400), op(wasm.OpEnd)),
				), F(form, neg), i32})
		}
	}
	rules = append(rules,
		rule{"i32.eqz; br_if", slices.Concat(seq(op(wasm.OpBlock, wasm.BlockEmpty)), pop,
			seq(op(wasm.OpI32Eqz), op(wasm.OpBrIf, 0), c32(200), set(3), op(wasm.OpEnd), get(3))), F("BrI", wasm.OpI32Eq), i32},
		rule{"i32.eqz; if", slices.Concat(pop,
			seq(op(wasm.OpI32Eqz), op(wasm.OpIf, uint64(i32)), c32(300), op(wasm.OpElse), c32(400), op(wasm.OpEnd))), F("BrI", wasm.OpI32Ne), i32})

	params := []wasm.ValueType{i32, i32, i64}
	var args [][]uint64
	for _, x := range i32Vals {
		for _, y := range []uint64{0, 1, 7, 0x80000000, 0xffffffff} {
			args = append(args, []uint64{x, y, x<<32 | y*0x9e3779b9})
		}
	}
	cfg := core.Config{Profile: isa.X86_64(), Strategy: mem.Trap}
	counted := cfg
	counted.CountCycles = true
	reached := map[wasm.Opcode]bool{}
	for _, r := range rules {
		om := opModule{r.name, opFunc(params, r.result, []wasm.ValueType{i32}, r.body...), args}
		cm, err := interp.NewWasm3().Compile(om.m)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		ops := interp.PlainOps(cm, 0)
		if !slices.Contains(ops, r.want) {
			t.Errorf("%s: no %#x in the plain stream %v", r.name, byte(r.want), ops)
		}
		for _, o := range ops {
			if o >= interp.PrivateFirst && o < interp.PrivateEnd {
				reached[o] = true
			}
		}
		if k := slices.Index(ops, r.want); strings.HasPrefix(r.name, "branch target") && (k < 1 || ops[k-1] != wasm.OpLocalGet) {
			t.Errorf("%s: a window reaches across the target: %v", r.name, ops)
		}
		wavm := opInstance(t, compiled.NewWAVM(), om, cfg)
		plain := opInstance(t, interp.NewWasm3(), om, cfg)
		instr := opInstance(t, interp.NewWasm3(), om, counted)
		for _, a := range args {
			want := opCall(t, wavm, a)
			for name, inst := range map[string]core.Instance{"plain": plain, "instrumented": instr} {
				if got := opCall(t, inst, a); got != want {
					t.Errorf("%s%v, %s stream: %+v, wavm %+v", r.name, a, name, got, want)
				}
			}
		}
	}
	for o := interp.PrivateFirst; o < interp.PrivateEnd; o++ {
		if !reached[o] {
			t.Errorf("no case reaches private opcode %#x", byte(o))
		}
	}
}

// TestFoldRejectsCorruptTables hands fold flattened streams whose side
// table or br_table ranges are corrupt: each is a compile error, not a
// table exec would index past.
func TestFoldRejectsCorruptTables(t *testing.T) {
	m := tablesModule(1)
	rows := []struct {
		name    string
		corrupt func(pf *flatten.Func, tables []*flatten.Instr)
		want    string
	}{
		{"empty range", func(_ *flatten.Func, tb []*flatten.Instr) { tb[0].B = 0 }, "br_table entries [0, 0+0)"},
		{"range past the table", func(_ *flatten.Func, tb []*flatten.Instr) { tb[1].B++ }, "br_table entries [3, 3+2) of 4"},
		{"range past the table, wrapping", func(_ *flatten.Func, tb []*flatten.Instr) { tb[1].B = 1<<64 - 1 }, "br_table entries"},
		{"range overlapping the last", func(_ *flatten.Func, tb []*flatten.Instr) { tb[1].A = 2 }, "br_table entries [2, 2+1) of 4, the next one 3"},
		{"entries no br_table takes", func(pf *flatten.Func, _ []*flatten.Instr) {
			pf.Targets = append(pf.Targets, pf.Targets[3])
		}, "1 br_table entries past the last br_table"},
		{"entry past the code", func(pf *flatten.Func, _ []*flatten.Instr) { pf.Targets[1].Tgt = int32(len(pf.Code)) }, "branch target"},
		{"entry unwinding past its stack", func(pf *flatten.Func, _ []*flatten.Instr) { pf.Targets[3].PopTo = 5 }, "branch keeps"},
	}
	for _, r := range rows {
		for _, fuse := range []bool{false, true} {
			pf, err := flatten.Flatten(m, 0, &m.Code[0])
			if err != nil {
				t.Fatal(err)
			}
			var tables []*flatten.Instr
			for k := range pf.Code {
				if pf.Code[k].Op == wasm.OpBrTable {
					tables = append(tables, &pf.Code[k])
				}
			}
			if len(tables) != 2 {
				t.Fatalf("%d br_tables flattened, want 2", len(tables))
			}
			r.corrupt(pf, tables)
			var buf []int32
			if err := interp.Fold(pf, fuse, &buf); err == nil || !strings.Contains(err.Error(), r.want) {
				t.Errorf("%s (fuse %v): fold says %v, want %q", r.name, fuse, err, r.want)
			}
		}
	}
}

// TestPrivateOpcodesAreInvalid holds the interpreter's private opcodes
// apart from wasm's and from flatten's pseudo-ops: none is a named
// opcode or a pseudo-op, and the validator refuses a body carrying any
// of them, or any pseudo-op.
func TestPrivateOpcodesAreInvalid(t *testing.T) {
	if interp.PrivateFirst >= interp.PrivateEnd || interp.PrivateEnd > wasm.OpPrefix {
		t.Fatalf("private opcodes [%#x, %#x)", byte(interp.PrivateFirst), byte(interp.PrivateEnd))
	}
	pseudo := []wasm.Opcode{flatten.OpIfFalse, flatten.OpJump, flatten.OpBranchIf, flatten.OpReturnEnd, flatten.OpAccount}
	var ops []wasm.Opcode
	for o := interp.PrivateFirst; o < interp.PrivateEnd; o++ {
		if slices.Contains(pseudo, o) || !strings.HasPrefix(o.String(), "opcode(") {
			t.Errorf("private opcode %#x is %s", byte(o), o)
		}
		ops = append(ops, o)
	}
	for _, o := range append(ops, pseudo...) {
		m := opFunc([]wasm.ValueType{wasm.I32}, wasm.I32, nil, op(wasm.OpLocalGet, 0), op(o), op(wasm.OpDrop), op(wasm.OpLocalGet, 0))
		if err := validate.Module(m); err == nil {
			t.Errorf("a body carrying %#x validates", byte(o))
		}
	}
}
