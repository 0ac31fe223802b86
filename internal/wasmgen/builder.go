// Package wasmgen is a small compiler front-end for authoring
// WebAssembly modules from Go: a module builder plus a typed
// expression/statement tree that is lowered to stack bytecode.
//
// The benchmark workloads in internal/workloads are written against
// this package, which makes loop kernels read like structured code
// while still producing real, validated WebAssembly binaries.
//
// Type errors in expressions are programmer errors in the kernel
// definitions; constructors panic with a descriptive message (in the
// manner of regexp.MustCompile) so that the workload test suite
// pinpoints them immediately. Structural problems detected at build
// time are returned as errors from Build.
package wasmgen

import (
	"fmt"

	"leapsandbounds/internal/validate"
	"leapsandbounds/internal/wasm"
)

// ModuleBuilder accumulates the parts of a module under construction.
type ModuleBuilder struct {
	types   []wasm.FuncType
	imports []wasm.Import
	funcs   []*Func
	mem     *wasm.MemoryType
	memIdx  uint32
	globals []wasm.Global
	exports []wasm.Export
	data    []wasm.DataSegment
	table   *wasm.TableType
	elems   []wasm.ElemSegment
	start   *uint32

	numImportedFuncs uint32
	sealedImports    bool
	errs             []error
}

// NewModule returns an empty module builder.
func NewModule() *ModuleBuilder { return &ModuleBuilder{} }

func (mb *ModuleBuilder) errorf(format string, args ...any) {
	mb.errs = append(mb.errs, fmt.Errorf(format, args...))
}

// typeIndex interns a function type and returns its index.
func (mb *ModuleBuilder) typeIndex(ft wasm.FuncType) uint32 {
	for i, t := range mb.types {
		if t.Equal(ft) {
			return uint32(i)
		}
	}
	mb.types = append(mb.types, ft)
	return uint32(len(mb.types) - 1)
}

// ImportFunc declares an imported function. All imports must be
// declared before the first call to Func.
func (mb *ModuleBuilder) ImportFunc(module, name string, params, results []wasm.ValueType) *Func {
	if mb.sealedImports {
		mb.errorf("wasmgen: import %q.%q declared after module-defined functions", module, name)
	}
	ft := wasm.FuncType{Params: params, Results: results}
	ti := mb.typeIndex(ft)
	mb.imports = append(mb.imports, wasm.Import{
		Module: module, Name: name, Kind: wasm.ExternFunc, Func: ti,
	})
	f := &Func{
		mb:       mb,
		name:     module + "." + name,
		typ:      ft,
		index:    mb.numImportedFuncs,
		imported: true,
	}
	mb.numImportedFuncs++
	return f
}

// Memory declares the module's linear memory with limits in 64 KiB
// pages.
func (mb *ModuleBuilder) Memory(minPages, maxPages uint32) {
	if mb.mem != nil {
		mb.errorf("wasmgen: memory declared twice")
		return
	}
	mb.mem = &wasm.MemoryType{Limits: wasm.Limits{Min: minPages, Max: maxPages, HasMax: true}}
}

// MemoryUnbounded declares a memory with no maximum.
func (mb *ModuleBuilder) MemoryUnbounded(minPages uint32) {
	if mb.mem != nil {
		mb.errorf("wasmgen: memory declared twice")
		return
	}
	mb.mem = &wasm.MemoryType{Limits: wasm.Limits{Min: minPages}}
}

// ExportMemory exports the memory under the given name.
func (mb *ModuleBuilder) ExportMemory(name string) {
	mb.exports = append(mb.exports, wasm.Export{Name: name, Kind: wasm.ExternMemory, Index: 0})
}

// Data adds an active data segment at a constant offset.
func (mb *ModuleBuilder) Data(offset uint32, bytes []byte) {
	mb.data = append(mb.data, wasm.DataSegment{
		Offset: wasm.ConstExpr{Op: wasm.OpI32Const, Value: uint64(offset)},
		Data:   bytes,
	})
}

// GlobalI32 declares a mutable i32 global and returns a handle.
func (mb *ModuleBuilder) GlobalI32(init int32) *GlobalVar {
	return mb.global(wasm.I32, uint64(uint32(init)))
}

// GlobalI64 declares a mutable i64 global and returns a handle.
func (mb *ModuleBuilder) GlobalI64(init int64) *GlobalVar {
	return mb.global(wasm.I64, uint64(init))
}

func (mb *ModuleBuilder) global(t wasm.ValueType, raw uint64) *GlobalVar {
	idx := uint32(len(mb.globals))
	var op wasm.Opcode
	switch t {
	case wasm.I32:
		op = wasm.OpI32Const
	case wasm.I64:
		op = wasm.OpI64Const
	case wasm.F32:
		op = wasm.OpF32Const
	case wasm.F64:
		op = wasm.OpF64Const
	}
	mb.globals = append(mb.globals, wasm.Global{
		Type: wasm.GlobalType{Type: t, Mutable: true},
		Init: wasm.ConstExpr{Op: op, Value: raw},
	})
	return &GlobalVar{index: idx, typ: t}
}

// Table declares a function table populated with the given functions
// starting at offset 0; used to exercise call_indirect.
func (mb *ModuleBuilder) Table(funcs ...*Func) {
	if mb.table != nil {
		mb.errorf("wasmgen: table declared twice")
		return
	}
	n := uint32(len(funcs))
	mb.table = &wasm.TableType{Elem: wasm.Funcref, Limits: wasm.Limits{Min: n, Max: n, HasMax: true}}
	idxs := make([]uint32, n)
	for i, f := range funcs {
		idxs[i] = f.index
	}
	mb.elems = append(mb.elems, wasm.ElemSegment{
		Offset: wasm.ConstExpr{Op: wasm.OpI32Const, Value: 0},
		Funcs:  idxs,
	})
}

// Func begins a new module-defined function. Parameters are declared
// through the returned builder before any locals or body statements.
func (mb *ModuleBuilder) Func(name string, results ...wasm.ValueType) *Func {
	mb.sealedImports = true
	f := &Func{
		mb:    mb,
		name:  name,
		typ:   wasm.FuncType{Results: results},
		index: mb.numImportedFuncs + uint32(len(mb.funcs)),
	}
	mb.funcs = append(mb.funcs, f)
	return f
}

// Export makes a previously defined function visible under name.
func (mb *ModuleBuilder) Export(name string, f *Func) {
	mb.exports = append(mb.exports, wasm.Export{Name: name, Kind: wasm.ExternFunc, Index: f.index})
}

// Start marks f as the module's start function.
func (mb *ModuleBuilder) Start(f *Func) { idx := f.index; mb.start = &idx }

// Module lowers every function body and assembles the wasm.Module.
// The result is fully validated.
func (mb *ModuleBuilder) Module() (*wasm.Module, error) {
	m := &wasm.Module{
		Imports: mb.imports,
		Globals: mb.globals,
		Exports: mb.exports,
		Data:    mb.data,
		Elems:   mb.elems,
		Start:   mb.start,
	}
	if mb.mem != nil {
		m.Mems = []wasm.MemoryType{*mb.mem}
	}
	if mb.table != nil {
		m.Tables = []wasm.TableType{*mb.table}
	}
	names := make(map[uint32]string)
	for _, f := range mb.funcs {
		m.Funcs = append(m.Funcs, mb.typeIndex(f.typ))
		code, err := f.lower()
		if err != nil {
			return nil, fmt.Errorf("wasmgen: function %q: %w", f.name, err)
		}
		m.Code = append(m.Code, code)
		names[f.index] = f.name
	}
	// Assign after the loop: typeIndex may intern new types while
	// lowering function declarations.
	m.Types = mb.types
	m.FuncNames = names
	if len(mb.errs) > 0 {
		return nil, fmt.Errorf("wasmgen: %w", mb.errs[0])
	}
	if err := validate.Module(m); err != nil {
		return nil, fmt.Errorf("wasmgen: built module does not validate: %w", err)
	}
	return m, nil
}

// Build encodes the module to its binary representation.
func (mb *ModuleBuilder) Build() ([]byte, error) {
	m, err := mb.Module()
	if err != nil {
		return nil, err
	}
	return wasm.Encode(m)
}

// MustBuild is Build that panics on error, for static kernels whose
// correctness is covered by tests.
func (mb *ModuleBuilder) MustBuild() []byte {
	b, err := mb.Build()
	if err != nil {
		panic(err)
	}
	return b
}

// Local is a handle to a function parameter or local variable.
type Local struct {
	index uint32
	typ   wasm.ValueType
	name  string
}

// Type returns the local's value type.
func (l *Local) Type() wasm.ValueType { return l.typ }

// GlobalVar is a handle to a module global.
type GlobalVar struct {
	index uint32
	typ   wasm.ValueType
}

// Func builds one function: parameters, locals, and a statement body.
type Func struct {
	mb       *ModuleBuilder
	name     string
	typ      wasm.FuncType
	index    uint32
	imported bool

	params []*Local
	locals []*Local
	body   []Stmt
	sealed bool // params sealed once a local or body stmt is added
}

// Index returns the function-space index (valid for table building
// and call_indirect immediates).
func (f *Func) Index() uint32 { return f.index }

// Name returns the diagnostic name of the function.
func (f *Func) Name() string { return f.name }

// Param declares the next parameter.
func (f *Func) Param(name string, t wasm.ValueType) *Local {
	if f.sealed || f.imported {
		f.mb.errorf("wasmgen: %s: parameter %q declared too late", f.name, name)
	}
	l := &Local{index: uint32(len(f.params)), typ: t, name: name}
	f.params = append(f.params, l)
	f.typ.Params = append(f.typ.Params, t)
	return l
}

// ParamI32 declares an i32 parameter.
func (f *Func) ParamI32(name string) *Local { return f.Param(name, wasm.I32) }

// ParamI64 declares an i64 parameter.
func (f *Func) ParamI64(name string) *Local { return f.Param(name, wasm.I64) }

// ParamF64 declares an f64 parameter.
func (f *Func) ParamF64(name string) *Local { return f.Param(name, wasm.F64) }

// Local declares a new local variable.
func (f *Func) Local(name string, t wasm.ValueType) *Local {
	f.sealed = true
	l := &Local{index: uint32(len(f.params) + len(f.locals)), typ: t, name: name}
	f.locals = append(f.locals, l)
	return l
}

// LocalI32 declares an i32 local.
func (f *Func) LocalI32(name string) *Local { return f.Local(name, wasm.I32) }

// LocalI64 declares an i64 local.
func (f *Func) LocalI64(name string) *Local { return f.Local(name, wasm.I64) }

// LocalF32 declares an f32 local.
func (f *Func) LocalF32(name string) *Local { return f.Local(name, wasm.F32) }

// LocalF64 declares an f64 local.
func (f *Func) LocalF64(name string) *Local { return f.Local(name, wasm.F64) }

// Body appends statements to the function body.
func (f *Func) Body(stmts ...Stmt) *Func {
	f.sealed = true
	f.body = append(f.body, stmts...)
	return f
}

// lower compiles the statement tree to a wasm code body.
func (f *Func) lower() (wasm.Code, error) {
	e := &emitter{}
	for _, s := range f.body {
		s.emitStmt(e)
	}
	e.op(wasm.OpEnd)
	if e.err != nil {
		return wasm.Code{}, e.err
	}
	locals := make([]wasm.ValueType, len(f.locals))
	for i, l := range f.locals {
		locals[i] = l.typ
	}
	return wasm.Code{Locals: locals, Body: e.code}, nil
}

// emitter accumulates lowered instructions and tracks the control
// nesting depth so Break/Continue can compute label indices.
type emitter struct {
	code []wasm.Instr
	err  error
	// loopStack records, for each enclosing For/While, the depth of
	// the emitter's control nesting at its block and loop labels.
	loops []loopLabels
	depth int // current block nesting depth
}

type loopLabels struct {
	breakDepth    int // nesting depth of the wrapping block (br target to exit)
	continueDepth int // nesting depth of the loop header
}

func (e *emitter) failf(format string, args ...any) {
	if e.err == nil {
		e.err = fmt.Errorf(format, args...)
	}
}

func (e *emitter) op(op wasm.Opcode) { e.code = append(e.code, wasm.Instr{Op: op}) }

func (e *emitter) opA(op wasm.Opcode, a uint64) {
	e.code = append(e.code, wasm.Instr{Op: op, A: a})
}

func (e *emitter) sub(s wasm.SubOpcode) {
	e.code = append(e.code, wasm.Instr{Op: wasm.OpPrefix, Sub: s})
}

func (e *emitter) mem(op wasm.Opcode, align, offset uint32) {
	e.code = append(e.code, wasm.Instr{Op: op, A: uint64(align), B: offset})
}
