package wasm

import (
	"fmt"
	"sync/atomic"
)

// Instr is one decoded instruction: 16 bytes with no pointer, so a
// body is one flat allocation the collector never scans. Immediates
// sit in a fixed layout:
//
//	block/loop/if   BlockType in A (int64 of the encoded byte / type index)
//	br/br_if        label depth in A
//	br_table        entries [A, A+B) of Code.Targets, default entry last
//	call            function index in A
//	call_indirect   type index in A
//	local/global    index in A
//	memory access   align in A, offset in B
//	const           raw bits in A (i32/f32 in low 32 bits)
//	prefix          SubOpcode in Sub, extra operands in A/B
type Instr struct {
	Op  Opcode
	Sub SubOpcode
	_   [2]byte
	B   uint32 // memarg offset (u32 in wasm32), or a br_table's entry count
	A   uint64
}

// BlockEmpty is the BlockType value for an empty (no-result) block.
const BlockEmpty = 0x40

// BlockType returns the decoded block type for block/loop/if
// instructions: BlockEmpty, or a ValueType byte.
func (i Instr) BlockType() byte { return byte(i.A) }

func (i Instr) String() string {
	switch i.Op {
	case OpPrefix:
		return i.Sub.String()
	case OpI32Const:
		return fmt.Sprintf("i32.const %d", int32(uint32(i.A)))
	case OpI64Const:
		return fmt.Sprintf("i64.const %d", int64(i.A))
	case OpCall, OpLocalGet, OpLocalSet, OpLocalTee, OpGlobalGet, OpGlobalSet, OpBr, OpBrIf:
		return fmt.Sprintf("%s %d", i.Op, i.A)
	case OpBrTable:
		return fmt.Sprintf("%s targets[%d:%d]", i.Op, i.A, i.A+uint64(i.B))
	default:
		if i.Op.IsLoad() || i.Op.IsStore() {
			return fmt.Sprintf("%s align=%d offset=%d", i.Op, i.A, i.B)
		}
		return i.Op.String()
	}
}

// Import is a single import entry.
type Import struct {
	Module string
	Name   string
	Kind   ExternKind
	// One of the following is set depending on Kind.
	Func   uint32 // type index
	Table  TableType
	Memory MemoryType
	Global GlobalType
}

// Export is a single export entry.
type Export struct {
	Name  string
	Kind  ExternKind
	Index uint32
}

// Global is a module-defined global with its constant initializer.
type Global struct {
	Type GlobalType
	Init ConstExpr
}

// ConstExpr is a constant initializer expression: a single const
// instruction or a global.get of an imported global.
type ConstExpr struct {
	Op    Opcode // OpI32Const, OpI64Const, OpF32Const, OpF64Const, OpGlobalGet
	Value uint64 // raw bits or global index
}

// ElemSegment initializes a range of a table with function indices.
type ElemSegment struct {
	Table  uint32
	Offset ConstExpr
	Funcs  []uint32
}

// DataSegment initializes a range of linear memory.
type DataSegment struct {
	Memory uint32
	Offset ConstExpr
	Data   []byte
}

// Code is one function body: its extra local declarations and
// decoded instruction sequence (terminated by an End instruction).
type Code struct {
	Locals []ValueType // expanded local declarations (excluding params)
	Body   []Instr
	// Targets holds every br_table's label depths, one table after
	// another in body order; a br_table takes its B entries from A, the
	// default depth last (the layout of flatten.Func.Targets).
	Targets []uint32
}

// Module is a fully decoded WebAssembly module.
type Module struct {
	Types   []FuncType
	Imports []Import
	// Funcs holds the type index for each module-defined function;
	// Code holds the matching bodies (same length, same order).
	Funcs   []uint32
	Tables  []TableType
	Mems    []MemoryType
	Globals []Global
	Exports []Export
	Start   *uint32
	Elems   []ElemSegment
	Code    []Code
	Data    []DataSegment

	// Names from the custom name section, if present (index keyed by
	// function space index).
	FuncNames map[uint32]string

	// validated is the mark Validated reads. It is a plain word behind
	// sync/atomic's functions rather than an atomic.Bool because a
	// Module is plain data that callers may copy.
	validated uint32
}

// Validated reports whether validate.Module has accepted m, in which
// case validating it again would repeat a walk over every body whose
// outcome is known. Decode and hand-built modules start unmarked, so
// whoever compiles a module nobody has validated still validates it.
// The mark describes the module as it was when it was validated:
// changing a module afterwards is outside the contract, exactly as
// changing one after an engine has compiled it is.
func (m *Module) Validated() bool { return atomic.LoadUint32(&m.validated) != 0 }

// MarkValidated is validate.Module's alone, called after a complete
// pass that found nothing wrong. Two engines may compile one module at
// once, so the mark is written and read atomically.
func (m *Module) MarkValidated() { atomic.StoreUint32(&m.validated, 1) }

// NumImportedFuncs returns how many functions are imported; module-
// defined functions are indexed after them in the function space.
func (m *Module) NumImportedFuncs() int {
	n := 0
	for _, im := range m.Imports {
		if im.Kind == ExternFunc {
			n++
		}
	}
	return n
}

// FuncTypeAt returns the signature of the function with the given
// function-space index (imports first, then module-defined).
func (m *Module) FuncTypeAt(idx uint32) (FuncType, error) {
	i := uint32(0)
	for _, im := range m.Imports {
		if im.Kind != ExternFunc {
			continue
		}
		if i == idx {
			if int(im.Func) >= len(m.Types) {
				return FuncType{}, fmt.Errorf("wasm: import %q.%q has bad type index %d", im.Module, im.Name, im.Func)
			}
			return m.Types[im.Func], nil
		}
		i++
	}
	local := idx - i
	if int(local) >= len(m.Funcs) {
		return FuncType{}, fmt.Errorf("wasm: function index %d out of range", idx)
	}
	ti := m.Funcs[local]
	if int(ti) >= len(m.Types) {
		return FuncType{}, fmt.Errorf("wasm: function %d has bad type index %d", idx, ti)
	}
	return m.Types[ti], nil
}

// ExportedFunc returns the function-space index of the named exported
// function.
func (m *Module) ExportedFunc(name string) (uint32, bool) {
	for _, e := range m.Exports {
		if e.Name == name && e.Kind == ExternFunc {
			return e.Index, true
		}
	}
	return 0, false
}

// MemoryLimits returns the limits of the module's memory (imported or
// defined), and whether the module has a memory at all.
func (m *Module) MemoryLimits() (Limits, bool) {
	for _, im := range m.Imports {
		if im.Kind == ExternMemory {
			return im.Memory.Limits, true
		}
	}
	if len(m.Mems) > 0 {
		return m.Mems[0].Limits, true
	}
	return Limits{}, false
}
