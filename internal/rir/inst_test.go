package rir

import (
	"reflect"
	"testing"
	"unsafe"

	"leapsandbounds/internal/flatten"
	"leapsandbounds/internal/wasm"
	g "leapsandbounds/internal/wasmgen"
)

// TestInstIsCompact keeps the hot op what a compile's memory budget
// assumes: at most 48 bytes, and nothing in it the collector must scan
// — no pointer, slice, map, func, interface, channel or string, at any
// depth of nested structs and arrays. A field only some ops need
// belongs in the function's cold tables (Func), not here.
func TestInstIsCompact(t *testing.T) {
	if n := unsafe.Sizeof(Inst{}); n > 48 {
		t.Errorf("unsafe.Sizeof(Inst{}) = %d, want at most 48", n)
	}
	var walk func(path string, ty reflect.Type)
	walk = func(path string, ty reflect.Type) {
		switch ty.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
			reflect.Func, reflect.Interface, reflect.Chan, reflect.String:
			t.Errorf("%s is a %s: the hot op holds no pointer", path, ty.Kind())
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				walk(path+"."+ty.Field(i).Name, ty.Field(i).Type)
			}
		case reflect.Array:
			walk(path+"[]", ty.Elem())
		}
	}
	walk("Inst", reflect.TypeOf(Inst{}))
}

// flatModule has every cold payload the front half and FuseMem make: a
// call, a select, a division of two constants (two immediates after
// Optimize), a counted loop whose latch fuses, and a br_table and a
// br_if that carry a value.
func flatModule(t *testing.T) *wasm.Module {
	t.Helper()
	mb := g.NewModule()
	inc := mb.Func("inc", wasm.I32)
	x := inc.ParamI32("x")
	inc.Body(g.Return(g.Add(g.Get(x), g.I32(1))))
	run := mb.Func("run", wasm.I32)
	n := run.ParamI32("n")
	i := run.LocalI32("i")
	acc := run.LocalI32("acc")
	run.Body(
		g.For(i, g.I32(0), g.Get(n),
			g.Set(acc, g.Add(g.Get(acc), g.Sel(g.Get(i), g.Call(inc, g.Get(i)), g.Div(g.I32(7), g.I32(3)))))),
		g.Return(g.Get(acc)))
	m, err := mb.Module()
	if err != nil {
		t.Fatal(err)
	}
	// (block (block (br_table 0 1 (i32.const 10) (local.get 0))) i32.const 1 i32.add)
	// (br_if 0 (local.get 0)) … : both branches carry a value.
	body := []wasm.Instr{
		{Op: wasm.OpBlock, A: uint64(wasm.I32)},
		{Op: wasm.OpBlock, A: uint64(wasm.I32)},
		{Op: wasm.OpI32Const, A: 10},
		{Op: wasm.OpLocalGet},
		{Op: wasm.OpBrTable, A: 0, B: 2},
		{Op: wasm.OpEnd},
		{Op: wasm.OpI32Const, A: 1},
		{Op: wasm.OpI32Add},
		{Op: wasm.OpLocalGet},
		{Op: wasm.OpBrIf},
		{Op: wasm.OpI32Const, A: 3},
		{Op: wasm.OpI32Mul},
		{Op: wasm.OpEnd},
		{Op: wasm.OpEnd},
	}
	m.Funcs = append(m.Funcs, m.Funcs[0])
	m.Code = append(m.Code, wasm.Code{Body: body, Targets: []uint32{0, 1}})
	return m
}

// TestFlatEntryPointsMatchFunc: the pass-at-a-time []Inst entry points
// (Build, Optimize, Compact, Lower, FuseMem) carry a function's cold
// tables through the stream and leave exactly what the Func methods
// leave.
func TestFlatEntryPointsMatchFunc(t *testing.T) {
	m := flatModule(t)
	kinds := map[string]bool{}
	for i := range m.Code {
		ff, err := flatten.Flatten(m, uint32(i), &m.Code[i])
		if err != nil {
			t.Fatal(err)
		}
		f, err := BuildFunc(ff, nil)
		if err != nil {
			t.Fatal(err)
		}
		f.Optimize(nil)
		f.Compact(nil)
		regs := f.Lower(nil)
		fused := f.FuseMem(nil)

		ir, err := Build(ff)
		if err != nil {
			t.Fatal(err)
		}
		ir = Compact(Optimize(ir, ff.NumLocals))
		ir, flatRegs := Lower(ir, ff.NumLocals)
		ir, flatFused := FuseMem(ir)
		got := must(unflat(ir))
		got.NumLocals = ff.NumLocals

		if flatRegs != regs || flatFused != fused || !reflect.DeepEqual(got, f) {
			t.Errorf("function %d: the flat passes left\n%s(%d registers, %d pairs), the Func methods\n%s(%d, %d)",
				i, dump(got), flatRegs, flatFused, dump(f), regs, fused)
		}
		for kind, n := range map[string]int{"call": len(f.calls), "carry": len(f.carries), "table": len(f.tables),
			"c": len(f.cs), "immB": len(f.immBs), "pair": len(f.pairs)} {
			kinds[kind] = kinds[kind] || n > 0
		}
	}
	for kind, seen := range kinds {
		if !seen {
			t.Errorf("no %s payload: the module does not test its flat form", kind)
		}
	}
}
