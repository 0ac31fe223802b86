package wasm

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// Encode serializes a Module into the WebAssembly binary format. The
// output round-trips through Decode.
func Encode(m *Module) ([]byte, error) {
	out := make([]byte, 0, 4096)
	out = append(out, Magic...)
	out = append(out, Version...)

	appendSection := func(id byte, body []byte) {
		if len(body) == 0 {
			return
		}
		out = append(out, id)
		out = AppendUleb128(out, uint64(len(body)))
		out = append(out, body...)
	}

	// Section 1: types.
	if len(m.Types) > 0 {
		var b []byte
		b = AppendUleb128(b, uint64(len(m.Types)))
		for _, t := range m.Types {
			b = append(b, 0x60)
			b = AppendUleb128(b, uint64(len(t.Params)))
			for _, p := range t.Params {
				b = append(b, byte(p))
			}
			b = AppendUleb128(b, uint64(len(t.Results)))
			for _, r := range t.Results {
				b = append(b, byte(r))
			}
		}
		appendSection(1, b)
	}

	// Section 2: imports.
	if len(m.Imports) > 0 {
		var b []byte
		b = AppendUleb128(b, uint64(len(m.Imports)))
		for _, im := range m.Imports {
			b = appendName(b, im.Module)
			b = appendName(b, im.Name)
			b = append(b, byte(im.Kind))
			switch im.Kind {
			case ExternFunc:
				b = AppendUleb128(b, uint64(im.Func))
			case ExternTable:
				b = append(b, byte(Funcref))
				b = appendLimits(b, im.Table.Limits)
			case ExternMemory:
				b = appendLimits(b, im.Memory.Limits)
			case ExternGlobal:
				b = append(b, byte(im.Global.Type))
				b = appendBool(b, im.Global.Mutable)
			default:
				return nil, fmt.Errorf("wasm: encode: unknown import kind %v", im.Kind)
			}
		}
		appendSection(2, b)
	}

	// Section 3: function declarations.
	if len(m.Funcs) > 0 {
		var b []byte
		b = AppendUleb128(b, uint64(len(m.Funcs)))
		for _, ti := range m.Funcs {
			b = AppendUleb128(b, uint64(ti))
		}
		appendSection(3, b)
	}

	// Section 4: tables.
	if len(m.Tables) > 0 {
		var b []byte
		b = AppendUleb128(b, uint64(len(m.Tables)))
		for _, t := range m.Tables {
			b = append(b, byte(Funcref))
			b = appendLimits(b, t.Limits)
		}
		appendSection(4, b)
	}

	// Section 5: memories.
	if len(m.Mems) > 0 {
		var b []byte
		b = AppendUleb128(b, uint64(len(m.Mems)))
		for _, mm := range m.Mems {
			b = appendLimits(b, mm.Limits)
		}
		appendSection(5, b)
	}

	// Section 6: globals.
	if len(m.Globals) > 0 {
		var b []byte
		b = AppendUleb128(b, uint64(len(m.Globals)))
		for _, g := range m.Globals {
			b = append(b, byte(g.Type.Type))
			b = appendBool(b, g.Type.Mutable)
			var err error
			b, err = appendConstExpr(b, g.Init)
			if err != nil {
				return nil, err
			}
		}
		appendSection(6, b)
	}

	// Section 7: exports.
	if len(m.Exports) > 0 {
		var b []byte
		b = AppendUleb128(b, uint64(len(m.Exports)))
		for _, e := range m.Exports {
			b = appendName(b, e.Name)
			b = append(b, byte(e.Kind))
			b = AppendUleb128(b, uint64(e.Index))
		}
		appendSection(7, b)
	}

	// Section 8: start.
	if m.Start != nil {
		var b []byte
		b = AppendUleb128(b, uint64(*m.Start))
		appendSection(8, b)
	}

	// Section 9: element segments.
	if len(m.Elems) > 0 {
		var b []byte
		b = AppendUleb128(b, uint64(len(m.Elems)))
		for _, e := range m.Elems {
			b = AppendUleb128(b, uint64(e.Table))
			var err error
			b, err = appendConstExpr(b, e.Offset)
			if err != nil {
				return nil, err
			}
			b = AppendUleb128(b, uint64(len(e.Funcs)))
			for _, fi := range e.Funcs {
				b = AppendUleb128(b, uint64(fi))
			}
		}
		appendSection(9, b)
	}

	// Section 10: code.
	if len(m.Code) > 0 {
		var b []byte
		b = AppendUleb128(b, uint64(len(m.Code)))
		for i, c := range m.Code {
			body, err := encodeBody(c)
			if err != nil {
				return nil, fmt.Errorf("wasm: encode function %d: %w", i, err)
			}
			b = AppendUleb128(b, uint64(len(body)))
			b = append(b, body...)
		}
		appendSection(10, b)
	}

	// Section 11: data segments.
	if len(m.Data) > 0 {
		var b []byte
		b = AppendUleb128(b, uint64(len(m.Data)))
		for _, ds := range m.Data {
			b = AppendUleb128(b, uint64(ds.Memory))
			var err error
			b, err = appendConstExpr(b, ds.Offset)
			if err != nil {
				return nil, err
			}
			b = AppendUleb128(b, uint64(len(ds.Data)))
			b = append(b, ds.Data...)
		}
		appendSection(11, b)
	}

	// Custom "name" section with function names, if any.
	if len(m.FuncNames) > 0 {
		var sub []byte
		sub = AppendUleb128(sub, uint64(len(m.FuncNames)))
		idxs := make([]uint32, 0, len(m.FuncNames))
		for idx := range m.FuncNames {
			idxs = append(idxs, idx)
		}
		sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
		for _, idx := range idxs {
			sub = AppendUleb128(sub, uint64(idx))
			sub = appendName(sub, m.FuncNames[idx])
		}
		var b []byte
		b = appendName(b, "name")
		b = append(b, 1) // function names subsection
		b = AppendUleb128(b, uint64(len(sub)))
		b = append(b, sub...)
		appendSection(0, b)
	}

	return out, nil
}

func appendName(b []byte, s string) []byte {
	b = AppendUleb128(b, uint64(len(s)))
	return append(b, s...)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendLimits(b []byte, l Limits) []byte {
	if l.HasMax {
		b = append(b, 1)
		b = AppendUleb128(b, uint64(l.Min))
		return AppendUleb128(b, uint64(l.Max))
	}
	b = append(b, 0)
	return AppendUleb128(b, uint64(l.Min))
}

func appendConstExpr(b []byte, e ConstExpr) ([]byte, error) {
	b = append(b, byte(e.Op))
	switch e.Op {
	case OpI32Const:
		b = AppendSleb128(b, int64(int32(uint32(e.Value))))
	case OpI64Const:
		b = AppendSleb128(b, int64(e.Value))
	case OpF32Const:
		b = binary.LittleEndian.AppendUint32(b, uint32(e.Value))
	case OpF64Const:
		b = binary.LittleEndian.AppendUint64(b, e.Value)
	case OpGlobalGet:
		b = AppendUleb128(b, e.Value)
	default:
		return nil, fmt.Errorf("wasm: encode: invalid constant opcode %s", e.Op)
	}
	return append(b, byte(OpEnd)), nil
}

func encodeBody(c Code) ([]byte, error) {
	var b []byte
	// Compress locals into (count, type) runs.
	type run struct {
		count uint32
		typ   ValueType
	}
	var runs []run
	for _, t := range c.Locals {
		if n := len(runs); n > 0 && runs[n-1].typ == t {
			runs[n-1].count++
		} else {
			runs = append(runs, run{1, t})
		}
	}
	b = AppendUleb128(b, uint64(len(runs)))
	for _, r := range runs {
		b = AppendUleb128(b, uint64(r.count))
		b = append(b, byte(r.typ))
	}
	for _, in := range c.Body {
		var err error
		b, err = appendInstr(b, in)
		if err != nil {
			return nil, err
		}
	}
	return b, nil
}

// appendInstr appends the binary encoding of a single instruction.
func appendInstr(b []byte, in Instr) ([]byte, error) {
	b = append(b, byte(in.Op))
	switch in.Op {
	case OpBlock, OpLoop, OpIf:
		b = append(b, byte(in.A))
	case OpBr, OpBrIf, OpCall, OpLocalGet, OpLocalSet, OpLocalTee,
		OpGlobalGet, OpGlobalSet:
		b = AppendUleb128(b, in.A)
	case OpBrTable:
		b = AppendUleb128(b, uint64(len(in.Targets)))
		for _, t := range in.Targets {
			b = AppendUleb128(b, uint64(t))
		}
		b = AppendUleb128(b, in.A)
	case OpCallIndirect:
		b = AppendUleb128(b, in.A)
		b = append(b, 0)
	case OpMemorySize, OpMemoryGrow:
		b = append(b, 0)
	case OpI32Const:
		b = AppendSleb128(b, int64(int32(uint32(in.A))))
	case OpI64Const:
		b = AppendSleb128(b, int64(in.A))
	case OpF32Const:
		b = binary.LittleEndian.AppendUint32(b, uint32(in.A))
	case OpF64Const:
		b = binary.LittleEndian.AppendUint64(b, in.A)
	case OpPrefix:
		b = AppendUleb128(b, uint64(in.Sub))
		switch in.Sub {
		case SubMemoryCopy:
			b = append(b, 0, 0)
		case SubMemoryFill:
			b = append(b, 0)
		}
	default:
		if in.Op.IsLoad() || in.Op.IsStore() {
			b = AppendUleb128(b, in.A)
			b = AppendUleb128(b, in.B)
		}
	}
	return b, nil
}
