package wasm_test

import (
	"bytes"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"leapsandbounds/internal/validate"
	"leapsandbounds/internal/wasm"
)

// TestInstrIsCompact pins the decoded body's layout: an Instr is 16
// bytes with no pointer, so a body is one flat allocation the collector
// never scans, and br_table entries live in Code.Targets.
func TestInstrIsCompact(t *testing.T) {
	if n := unsafe.Sizeof(wasm.Instr{}); n != 16 {
		t.Errorf("wasm.Instr is %d bytes, want 16", n)
	}
	typ := reflect.TypeFor[wasm.Instr]()
	for k := range typ.NumField() {
		if f := typ.Field(k); !pointerFree(f.Type) {
			t.Errorf("wasm.Instr.%s (%s) holds a pointer", f.Name, f.Type)
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

// brTablesModule is a hand-assembled binary of two (i32) -> i32
// functions, each with two br_tables: the first carries 10 out of one
// of two nested blocks, the second has only its default entry. The
// authoring DSL emits no br_table, so no workload module has one.
var brTablesModule = func() []byte {
	body := func(table ...byte) []byte {
		b := []byte{
			0x00,       // no locals
			0x02, 0x7f, // block (result i32)
			0x02, 0x7f, // block (result i32)
			0x41, 0x0a, // i32.const 10
			0x20, 0x00, // local.get 0
		}
		b = append(append(b, 0x0e), table...) // br_table …
		b = append(b,
			0x0b,             // end
			0x41, 0x01, 0x6a, // i32.const 1; i32.add
			0x0b,       // end
			0x21, 0x00, // local.set 0
			0x02, 0x40, // block
			0x20, 0x00, // local.get 0
			0x0e, 0x00, 0x00, // br_table, default 0 only
			0x0b,       // end
			0x20, 0x00, // local.get 0
			0x0b, // end
		)
		return append([]byte{byte(len(b))}, b...)
	}
	code := append([]byte{0x02},
		append(body(0x02, 0x00, 0x01, 0x01), // 0 1, default 1
			body(0x03, 0x01, 0x00, 0x01, 0x00)...)...) // 1 0 1, default 0
	out := []byte{
		0x00, 0x61, 0x73, 0x6d, 0x01, 0x00, 0x00, 0x00,
		0x01, 0x06, 0x01, 0x60, 0x01, 0x7f, 0x01, 0x7f, // type: (i32) -> i32
		0x03, 0x03, 0x02, 0x00, 0x00, // functions 0, 1 : type 0
	}
	return append(append(append(out, 0x0a), byte(len(code))), code...)
}()

// TestBrTableRoundTrip decodes brTablesModule and encodes it back to
// the same bytes. Each function's br_tables take consecutive ranges of
// its own side table, the default entry last.
func TestBrTableRoundTrip(t *testing.T) {
	m, err := wasm.Decode(brTablesModule)
	if err != nil {
		t.Fatal(err)
	}
	if err := validate.Module(m); err != nil {
		t.Fatal(err)
	}
	want := []struct {
		targets []uint32
		ranges  [][2]uint64 // each br_table's [A, B]
	}{
		{[]uint32{0, 1, 1, 0}, [][2]uint64{{0, 3}, {3, 1}}},
		{[]uint32{1, 0, 1, 0, 0}, [][2]uint64{{0, 4}, {4, 1}}},
	}
	for k, c := range m.Code {
		var ranges [][2]uint64
		for _, in := range c.Body {
			if in.Op == wasm.OpBrTable {
				ranges = append(ranges, [2]uint64{in.A, uint64(in.B)})
			}
		}
		if !slices.Equal(c.Targets, want[k].targets) || !slices.Equal(ranges, want[k].ranges) {
			t.Errorf("function %d: side table %v, br_tables %v; want %v, %v", k, c.Targets, ranges, want[k].targets, want[k].ranges)
		}
	}
	bin, err := wasm.Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bin, brTablesModule) {
		t.Errorf("re-encoded\n%x\nwant\n%x", bin, brTablesModule)
	}
}

// TestEncodeRejectsBadBrTable: a built module reaches Encode (through
// ContentHash) before anything has validated it, so a br_table range
// its side table cannot back is an error, never a panic.
func TestEncodeRejectsBadBrTable(t *testing.T) {
	for _, c := range []struct {
		name    string
		in      wasm.Instr
		targets []uint32
	}{
		{"empty range", wasm.Instr{Op: wasm.OpBrTable, A: 0, B: 0}, []uint32{0}},
		{"start past the table", wasm.Instr{Op: wasm.OpBrTable, A: 2, B: 1}, []uint32{0}},
		{"end past the table", wasm.Instr{Op: wasm.OpBrTable, A: 0, B: 2}, []uint32{0}},
		{"no table", wasm.Instr{Op: wasm.OpBrTable, A: 0, B: 1}, nil},
		{"wrapping start", wasm.Instr{Op: wasm.OpBrTable, A: ^uint64(0), B: 2}, []uint32{0}},
	} {
		t.Run(c.name, func(t *testing.T) {
			m := &wasm.Module{
				Types: []wasm.FuncType{{Params: []wasm.ValueType{wasm.I32}}},
				Funcs: []uint32{0},
				Code: []wasm.Code{{Targets: c.targets, Body: []wasm.Instr{
					{Op: wasm.OpLocalGet}, c.in, {Op: wasm.OpEnd},
				}}},
			}
			if _, err := m.ContentHash(); err == nil || !strings.Contains(err.Error(), "br_table entries") {
				t.Fatalf("ContentHash: %v, want a br_table range error", err)
			}
		})
	}
}
