package interp_test

import (
	"fmt"
	"slices"
	"testing"

	"leapsandbounds/internal/compiled"
	"leapsandbounds/internal/core"
	"leapsandbounds/internal/difftest"
	"leapsandbounds/internal/flatten"
	"leapsandbounds/internal/interp"
	"leapsandbounds/internal/isa"
	"leapsandbounds/internal/mem"
	"leapsandbounds/internal/prof"
	"leapsandbounds/internal/wasm"
	"leapsandbounds/internal/workloads"
)

// tablesModule has n exported functions f0, f1, … of one i32 argument,
// each with two br_tables: the first carries 10 to one of three block
// ends, each of which transforms it on the way out; the second has
// only its default entry, which skips the code behind it to the end
// of its block. Function k runs k constant-drop pairs first, so no two
// functions' tables hold the same targets.
func tablesModule(n int) *wasm.Module {
	i32 := wasm.I32
	m := &wasm.Module{Types: []wasm.FuncType{{Params: []wasm.ValueType{i32}, Results: []wasm.ValueType{i32}}}}
	for k := range n {
		var body []wasm.Instr
		for range k {
			body = append(body, op(wasm.OpI32Const, uint64(k)), op(wasm.OpDrop))
		}
		body = append(body,
			op(wasm.OpBlock, uint64(i32)), op(wasm.OpBlock, uint64(i32)), op(wasm.OpBlock, uint64(i32)),
			op(wasm.OpI32Const, 10), op(wasm.OpLocalGet, 0),
			wasm.Instr{Op: wasm.OpBrTable, A: 0, B: 3},
			op(wasm.OpEnd), op(wasm.OpI32Const, 1), op(wasm.OpI32Add),
			op(wasm.OpEnd), op(wasm.OpI32Const, 3), op(wasm.OpI32Mul),
			op(wasm.OpEnd), op(wasm.OpLocalSet, 1),
			op(wasm.OpBlock, wasm.BlockEmpty),
			op(wasm.OpLocalGet, 0),
			wasm.Instr{Op: wasm.OpBrTable, A: 3, B: 1},
			op(wasm.OpEnd),
			op(wasm.OpLocalGet, 1), op(wasm.OpLocalGet, 0), op(wasm.OpI32Add),
			op(wasm.OpEnd))
		m.Funcs = append(m.Funcs, 0)
		m.Code = append(m.Code, wasm.Code{Locals: []wasm.ValueType{i32}, Body: body, Targets: []uint32{0, 1, 2, 0}})
		m.Exports = append(m.Exports, wasm.Export{Name: fmt.Sprintf("f%d", k), Kind: wasm.ExternFunc, Index: uint32(k)})
	}
	return m
}

// TestBrTableSideTable holds br_table's side table on tablesModule.
// In the instrumented streams every side-table entry lands on an
// OpAccount. Then every function runs on the plain stream, on the
// instrumented one under CountCycles and under a profiler cell, and on
// wavm, and every argument gives the same result. The module's
// functions compile on shared scratch, so a side table kept without
// being copied out would hold another function's entries.
func TestBrTableSideTable(t *testing.T) {
	m := tablesModule(8)
	cm, err := interp.NewWasm3().Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	for fn := range m.Code {
		pf, err := interp.AccountedFunc(cm, fn)
		if err != nil {
			t.Fatal(err)
		}
		if len(pf.Targets) != 4 { // three entries, then one
			t.Fatalf("function %d: side table %+v, want 4 entries", fn, pf.Targets)
		}
		for k, e := range pf.Targets {
			if op := pf.Code[e.Tgt].Op; op != flatten.OpAccount {
				t.Errorf("function %d: instrumented entry %d lands on pc %d, a %s", fn, k, e.Tgt, op)
			}
		}
	}
	if t.Failed() {
		return // a misplaced entry may send the instrumented stream into a loop
	}

	p := prof.New(4001)
	p.Start()
	defer p.Stop()
	cfg := core.Config{Profile: isa.X86_64(), Strategy: mem.Trap}
	counted, profiled := cfg, cfg
	counted.CountCycles = true
	profiled.Prof = p
	instance := func(e core.Engine, cfg core.Config) core.Instance {
		cm, err := e.Compile(m)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := cm.Instantiate(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		// The module has no memory, so closing an instance whose call
		// hung (past difftest.Run's bound) frees nothing that call reads.
		t.Cleanup(func() { inst.Close() })
		return inst
	}
	call := func(inst core.Instance, stream, name string, arg uint64) difftest.Outcome {
		return difftest.Run(t, inst, stream+" stream", difftest.Call{Export: name, Args: []uint64{arg}})
	}
	wavm := instance(compiled.NewWAVM(), cfg)
	insts := map[string]core.Instance{
		"plain":                     instance(interp.NewWasm3(), cfg),
		"instrumented, CountCycles": instance(interp.NewWasm3(), counted),
		"instrumented, profiled":    instance(interp.NewWasm3(), profiled),
	}
	for _, e := range m.Exports {
		for _, a := range []uint64{0, 1, 2, 3, 0x7fffffff, 0xffffffff} {
			want := call(wavm, "wavm", e.Name, a)
			for stream, inst := range insts {
				if got := call(inst, stream, e.Name, a); got != want {
					t.Errorf("%s(%d), %s: %+v, wavm %+v", e.Name, a, stream, got, want)
				}
			}
		}
	}
}

// TestScratchReuse flattens and folds every function of every workload
// at class Test, every program of interp_test.go and every module of
// opModules in reverse order on one shared flatten.Scratch and fold
// buffer, the way a compile worker reuses them, and holds each stream
// and side table to what fresh ones give.
func TestScratchReuse(t *testing.T) {
	var modules []*wasm.Module
	for _, spec := range workloads.All() {
		m, _ := spec.Build(workloads.Test)
		modules = append(modules, m)
	}
	for _, p := range programs() {
		m, err := p.build().Module()
		if err != nil {
			t.Fatal(err)
		}
		modules = append(modules, m)
	}
	for _, om := range opModules() {
		modules = append(modules, om.m)
	}
	modules = append(modules, tablesModule(8))
	var (
		shared flatten.Scratch
		buf    []int32
	)
	flattenFold := func(sc *flatten.Scratch, buf *[]int32, m *wasm.Module, i int) *flatten.Func {
		pf, err := sc.Flatten(m, uint32(m.NumImportedFuncs()+i), &m.Code[i])
		if err == nil {
			err = interp.Fold(pf, true, buf)
		}
		if err != nil {
			t.Fatalf("function %d: %v", i, err)
		}
		return pf
	}
	tables := 0
	for n, m := range modules {
		for i := len(m.Code) - 1; i >= 0; i-- {
			got := flattenFold(&shared, &buf, m, i)
			var fresh []int32
			want := flattenFold(new(flatten.Scratch), &fresh, m, i)
			if !slices.Equal(got.Code, want.Code) || !slices.Equal(got.Targets, want.Targets) || got.MaxStack != want.MaxStack {
				t.Errorf("module %d function %d folds differently on a used scratch:\n%+v\n%+v\nfresh:\n%+v\n%+v",
					n, i, got.Code, got.Targets, want.Code, want.Targets)
			}
			tables += len(want.Targets)
		}
	}
	if tables == 0 {
		t.Error("no module has a br_table")
	}
}
