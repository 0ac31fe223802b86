// Package validate implements WebAssembly module validation: the
// type-checking algorithm from the core specification (appendix
// "Validation Algorithm"), applied to every function body, plus
// module-level checks on imports, exports, segments and limits.
package validate

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"leapsandbounds/internal/fanout"
	"leapsandbounds/internal/wasm"
)

// ErrInvalid wraps all validation failures.
var ErrInvalid = errors.New("validate: invalid module")

// unknown is the bottom value type used for unreachable operand slots.
const unknown wasm.ValueType = 0

// Process-wide counts of the work done, for the tests that hold a cold
// start to validating each body once (and never zero times).
var (
	modulesChecked atomic.Int64
	bodiesChecked  atomic.Int64
)

// Stats returns how many modules Module and Decode have walked and how
// many function bodies they have type-checked, process-wide. A call that
// returns at once for a module already marked valid counts nothing; a
// walk that finds an invalid body counts the bodies up to and including
// it — what a loop checks — whatever else the workers got to.
func Stats() (modules, bodies int64) {
	return modulesChecked.Load(), bodiesChecked.Load()
}

// Module validates m in full. It returns nil when the module is valid,
// and marks a valid module (wasm.Module.Validated) so that the next
// call — every engine's Compile makes one — returns at once. An
// invalid module gets no mark: it is walked, and fails, again. Module
// is the walk for a module built in memory; a binary is type-checked
// as it is decoded, by Decode.
func Module(m *wasm.Module) error {
	if m.Validated() {
		return nil
	}
	modulesChecked.Add(1)
	v := &validator{m: m}
	if err := v.indexSpaces(); err != nil {
		return err
	}
	if err := v.moduleRules(); err != nil {
		return err
	}
	if err := v.bodies(); err != nil {
		return err
	}
	m.MarkValidated()
	return nil
}

// Decode decodes a binary module and validates it in full in one
// fan-out: each function body is type-checked on the decode worker that
// has just decoded it. It returns what wasm.Decode followed by Module
// returns, error text for error text: a decode error wins over every
// type error, a module-level error over a body error, and of the body
// errors the lowest function's, named from a name section that may
// follow the code section. Stats counts what Module would have.
func Decode(data []byte) (*wasm.Module, error) {
	var (
		v      *validator
		spaces error // v.indexSpaces's, reported after the decode
		bad    lowestBody
	)
	m, err := wasm.DecodeChecked(data, func(m *wasm.Module, bodies int) func() func(int, *wasm.Code) {
		// Every section that feeds the index spaces precedes code. If
		// they cannot be built, or the bodies are not the functions',
		// the decode or the module-level rules report it: check none.
		v = &validator{m: m}
		if spaces = v.indexSpaces(); spaces != nil || bodies != len(m.Funcs) {
			return nil
		}
		imported := len(v.funcs) - bodies
		return func() func(int, *wasm.Code) {
			c := &bodyChecker{v: v}
			return func(i int, code *wasm.Code) {
				if err := c.validateBody(v.funcs[imported+i], code); err != nil {
					bad.fail(i, err)
				}
			}
		}
	})
	if err != nil {
		return nil, err
	}
	modulesChecked.Add(1)
	if v == nil { // no code section, so no functions
		v = &validator{m: m}
		spaces = v.indexSpaces()
	}
	if spaces != nil {
		return nil, spaces
	}
	if err := v.moduleRules(); err != nil {
		return nil, err
	}
	if bad.err != nil {
		bodiesChecked.Add(int64(bad.idx + 1))
		return nil, v.bodyError(bad.idx, bad.err)
	}
	bodiesChecked.Add(int64(len(m.Code)))
	m.MarkValidated()
	return m, nil
}

// lowestBody is the lowest body whose check failed, and its error.
type lowestBody struct {
	mu  sync.Mutex // guards idx and err
	idx int
	err error
}

func (b *lowestBody) fail(i int, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.err == nil || i < b.idx {
		b.idx, b.err = i, err
	}
}

type validator struct {
	m *wasm.Module

	// Flattened index spaces (imports first).
	funcs   []wasm.FuncType
	globals []wasm.GlobalType
	numMems int
	numTabs int
	// Number of imported globals; only these may appear in constant
	// expressions.
	importedGlobals int
}

func (v *validator) failf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrInvalid, fmt.Sprintf(format, args...))
}

// indexSpaces builds the function, global, memory and table index
// spaces, imports first. Everything it reads precedes the code section
// of a binary.
func (v *validator) indexSpaces() error {
	m := v.m
	for i, im := range m.Imports {
		switch im.Kind {
		case wasm.ExternFunc:
			if int(im.Func) >= len(m.Types) {
				return v.failf("import %d: type index %d out of range", i, im.Func)
			}
			v.funcs = append(v.funcs, m.Types[im.Func])
		case wasm.ExternGlobal:
			v.globals = append(v.globals, im.Global)
			v.importedGlobals++
		case wasm.ExternMemory:
			v.numMems++
		case wasm.ExternTable:
			v.numTabs++
		}
	}
	for i, ti := range m.Funcs {
		if int(ti) >= len(m.Types) {
			return v.failf("function %d: type index %d out of range", i, ti)
		}
		v.funcs = append(v.funcs, m.Types[ti])
	}
	for _, g := range m.Globals {
		v.globals = append(v.globals, g.Type)
	}
	v.numMems += len(m.Mems)
	v.numTabs += len(m.Tables)
	return nil
}

// moduleRules checks everything but the function bodies, over the index
// spaces indexSpaces built.
func (v *validator) moduleRules() error {
	m := v.m
	if v.numMems > 1 {
		return v.failf("at most one memory is allowed, found %d", v.numMems)
	}
	if v.numTabs > 1 {
		return v.failf("at most one table is allowed, found %d", v.numTabs)
	}

	if len(m.Code) != len(m.Funcs) {
		return v.failf("%d functions declared but %d bodies", len(m.Funcs), len(m.Code))
	}
	// Global initializers.
	for i, g := range m.Globals {
		t, err := v.constExprType(g.Init)
		if err != nil {
			return v.failf("global %d: %v", i, err)
		}
		if t != g.Type.Type {
			return v.failf("global %d: initializer type %s, want %s", i, t, g.Type.Type)
		}
	}

	// Exports.
	for _, e := range m.Exports {
		switch e.Kind {
		case wasm.ExternFunc:
			if int(e.Index) >= len(v.funcs) {
				return v.failf("export %q: function index %d out of range", e.Name, e.Index)
			}
		case wasm.ExternGlobal:
			if int(e.Index) >= len(v.globals) {
				return v.failf("export %q: global index %d out of range", e.Name, e.Index)
			}
		case wasm.ExternMemory:
			if int(e.Index) >= v.numMems {
				return v.failf("export %q: memory index %d out of range", e.Name, e.Index)
			}
		case wasm.ExternTable:
			if int(e.Index) >= v.numTabs {
				return v.failf("export %q: table index %d out of range", e.Name, e.Index)
			}
		}
	}

	// Start function.
	if m.Start != nil {
		if int(*m.Start) >= len(v.funcs) {
			return v.failf("start function index %d out of range", *m.Start)
		}
		ft := v.funcs[*m.Start]
		if len(ft.Params) != 0 || len(ft.Results) != 0 {
			return v.failf("start function must have type () -> (), has %s", ft)
		}
	}

	// Element segments.
	for i, e := range m.Elems {
		if int(e.Table) >= v.numTabs {
			return v.failf("element segment %d: table index %d out of range", i, e.Table)
		}
		t, err := v.constExprType(e.Offset)
		if err != nil {
			return v.failf("element segment %d: %v", i, err)
		}
		if t != wasm.I32 {
			return v.failf("element segment %d: offset type %s, want i32", i, t)
		}
		for _, fi := range e.Funcs {
			if int(fi) >= len(v.funcs) {
				return v.failf("element segment %d: function index %d out of range", i, fi)
			}
		}
	}

	// Data segments.
	for i, ds := range m.Data {
		if int(ds.Memory) >= v.numMems {
			return v.failf("data segment %d: memory index %d out of range", i, ds.Memory)
		}
		t, err := v.constExprType(ds.Offset)
		if err != nil {
			return v.failf("data segment %d: %v", i, err)
		}
		if t != wasm.I32 {
			return v.failf("data segment %d: offset type %s, want i32", i, t)
		}
	}

	return nil
}

// bodies type-checks every function body on fanout's workers: the
// index spaces are complete and only read from here on, and each worker
// checks with a bodyChecker of its own. The lowest invalid body is the
// one reported, as by a loop.
func (v *validator) bodies() error {
	m := v.m
	imported := len(v.funcs) - len(m.Funcs)
	i, err := fanout.Each(len(m.Code), func() func(int) error {
		c := &bodyChecker{v: v}
		return func(i int) error { return c.validateBody(v.funcs[imported+i], &m.Code[i]) }
	})
	bodiesChecked.Add(int64(min(i+1, len(m.Code))))
	if err != nil {
		return v.bodyError(i, err)
	}
	return nil
}

// bodyError puts the error of body i into the module's words, naming
// its function as the name section does.
func (v *validator) bodyError(i int, err error) error {
	fi := len(v.funcs) - len(v.m.Funcs) + i
	name := fmt.Sprintf("function %d", fi)
	if n, ok := v.m.FuncNames[uint32(fi)]; ok {
		name = fmt.Sprintf("function %d (%s)", fi, n)
	}
	return v.failf("%s: %v", name, err)
}

func (v *validator) constExprType(e wasm.ConstExpr) (wasm.ValueType, error) {
	switch e.Op {
	case wasm.OpI32Const:
		return wasm.I32, nil
	case wasm.OpI64Const:
		return wasm.I64, nil
	case wasm.OpF32Const:
		return wasm.F32, nil
	case wasm.OpF64Const:
		return wasm.F64, nil
	case wasm.OpGlobalGet:
		idx := int(e.Value)
		if idx >= v.importedGlobals {
			return 0, fmt.Errorf("constant global.get %d must refer to an imported global", idx)
		}
		g := v.globals[idx]
		if g.Mutable {
			return 0, fmt.Errorf("constant global.get %d refers to a mutable global", idx)
		}
		return g.Type, nil
	default:
		return 0, fmt.Errorf("invalid constant opcode %s", e.Op)
	}
}

// ctrlFrame is one entry of the control stack.
type ctrlFrame struct {
	op          wasm.Opcode // block, loop, if, or 0 for the function frame
	startTypes  []wasm.ValueType
	endTypes    []wasm.ValueType
	height      int
	unreachable bool
}

// labelTypes returns the types expected by a branch to this frame.
func (f *ctrlFrame) labelTypes() []wasm.ValueType {
	if f.op == wasm.OpLoop {
		return f.startTypes
	}
	return f.endTypes
}

type bodyChecker struct {
	v      *validator
	locals []wasm.ValueType
	ops    []wasm.ValueType
	ctrls  []ctrlFrame
	// targets is the body's br_table side table past the entries
	// br_tables have taken; used counts those.
	targets []uint32
	used    uint64
}

func (c *bodyChecker) pushOp(t wasm.ValueType) { c.ops = append(c.ops, t) }

func (c *bodyChecker) popOpAny() (wasm.ValueType, error) {
	cur := &c.ctrls[len(c.ctrls)-1]
	if len(c.ops) == cur.height {
		if cur.unreachable {
			return unknown, nil
		}
		return 0, fmt.Errorf("operand stack underflow")
	}
	t := c.ops[len(c.ops)-1]
	c.ops = c.ops[:len(c.ops)-1]
	return t, nil
}

func (c *bodyChecker) popOp(want wasm.ValueType) (wasm.ValueType, error) {
	got, err := c.popOpAny()
	if err != nil {
		return 0, err
	}
	if got != want && got != unknown && want != unknown {
		return 0, fmt.Errorf("type mismatch: got %s, want %s", got, want)
	}
	return got, nil
}

func (c *bodyChecker) pushCtrl(op wasm.Opcode, in, out []wasm.ValueType) {
	c.ctrls = append(c.ctrls, ctrlFrame{
		op:         op,
		startTypes: in,
		endTypes:   out,
		height:     len(c.ops),
	})
	for _, t := range in {
		c.pushOp(t)
	}
}

func (c *bodyChecker) popCtrl() (ctrlFrame, error) {
	if len(c.ctrls) == 0 {
		return ctrlFrame{}, fmt.Errorf("control stack underflow")
	}
	frame := c.ctrls[len(c.ctrls)-1]
	for i := len(frame.endTypes) - 1; i >= 0; i-- {
		if _, err := c.popOp(frame.endTypes[i]); err != nil {
			return ctrlFrame{}, err
		}
	}
	if len(c.ops) != frame.height {
		return ctrlFrame{}, fmt.Errorf("%d extra operands at end of block", len(c.ops)-frame.height)
	}
	c.ctrls = c.ctrls[:len(c.ctrls)-1]
	return frame, nil
}

func (c *bodyChecker) setUnreachable() {
	cur := &c.ctrls[len(c.ctrls)-1]
	c.ops = c.ops[:cur.height]
	cur.unreachable = true
}

func blockTypes(bt byte) (in, out []wasm.ValueType) {
	if bt == wasm.BlockEmpty {
		return nil, nil
	}
	return nil, []wasm.ValueType{wasm.ValueType(bt)}
}

// validateBody type-checks one function body. The checker's stacks are
// emptied, not reallocated: one checker serves every body its worker
// takes.
func (c *bodyChecker) validateBody(ft wasm.FuncType, code *wasm.Code) error {
	v := c.v
	c.locals = append(append(c.locals[:0], ft.Params...), code.Locals...)
	c.ops, c.ctrls = c.ops[:0], c.ctrls[:0]
	c.targets, c.used = code.Targets, 0
	c.pushCtrl(0, nil, ft.Results)

	for pc, in := range code.Body {
		if c.fast(in) {
			continue
		}
		if err := v.checkInstr(c, in); err != nil {
			return fmt.Errorf("instr %d (%s): %w", pc, in, err)
		}
		if len(c.ctrls) == 0 {
			if pc != len(code.Body)-1 {
				return fmt.Errorf("instr %d: code after function end", pc)
			}
			if len(c.targets) > 0 {
				return fmt.Errorf("%d br_table entries past the last br_table", len(c.targets))
			}
			return nil
		}
	}
	return fmt.Errorf("function body not terminated by end")
}

// fast checks a fixed-signature numeric op inline when its operands are
// exactly the top of the stack, above the current frame. Anything else —
// a mismatch, an underflow, an unknown operand — it leaves to
// checkInstr, which puts the error into words.
func (c *bodyChecker) fast(in wasm.Instr) bool {
	sig := &simpleSigs[in.Op]
	top := len(c.ops) - len(sig.in)
	if len(sig.in) == 0 || top < c.ctrls[len(c.ctrls)-1].height {
		return false
	}
	for k, t := range sig.in {
		if c.ops[top+k] != t {
			return false
		}
	}
	c.ops = append(c.ops[:top], sig.out...)
	return true
}

func (v *validator) checkInstr(c *bodyChecker, in wasm.Instr) error {
	op := in.Op

	// Memory accesses share the alignment/width check.
	if w := op.AccessWidth(); w != 0 {
		if v.numMems == 0 {
			return fmt.Errorf("memory instruction with no memory declared")
		}
		if align := uint32(in.A); align > 31 || 1<<align > w {
			return fmt.Errorf("alignment 2^%d larger than access width %d", in.A, w)
		}
	}

	switch op {
	case wasm.OpUnreachable:
		c.setUnreachable()
	case wasm.OpNop:
	case wasm.OpBlock, wasm.OpLoop:
		inT, outT := blockTypes(in.BlockType())
		for i := len(inT) - 1; i >= 0; i-- {
			if _, err := c.popOp(inT[i]); err != nil {
				return err
			}
		}
		c.pushCtrl(op, inT, outT)
	case wasm.OpIf:
		if _, err := c.popOp(wasm.I32); err != nil {
			return err
		}
		inT, outT := blockTypes(in.BlockType())
		for i := len(inT) - 1; i >= 0; i-- {
			if _, err := c.popOp(inT[i]); err != nil {
				return err
			}
		}
		c.pushCtrl(op, inT, outT)
	case wasm.OpElse:
		frame, err := c.popCtrl()
		if err != nil {
			return err
		}
		if frame.op != wasm.OpIf {
			return fmt.Errorf("else without matching if")
		}
		c.pushCtrl(wasm.OpElse, frame.startTypes, frame.endTypes)
	case wasm.OpEnd:
		frame, err := c.popCtrl()
		if err != nil {
			return err
		}
		if frame.op == wasm.OpIf && len(frame.endTypes) > 0 {
			// An if with a result but no else cannot produce the result
			// on the false path.
			return fmt.Errorf("if with result type %s has no else branch", frame.endTypes[0])
		}
		for _, t := range frame.endTypes {
			c.pushOp(t)
		}
	case wasm.OpBr:
		depth := int(in.A)
		if depth >= len(c.ctrls) {
			return fmt.Errorf("br depth %d exceeds control stack", depth)
		}
		target := &c.ctrls[len(c.ctrls)-1-depth]
		lt := target.labelTypes()
		for i := len(lt) - 1; i >= 0; i-- {
			if _, err := c.popOp(lt[i]); err != nil {
				return err
			}
		}
		c.setUnreachable()
	case wasm.OpBrIf:
		if _, err := c.popOp(wasm.I32); err != nil {
			return err
		}
		depth := int(in.A)
		if depth >= len(c.ctrls) {
			return fmt.Errorf("br_if depth %d exceeds control stack", depth)
		}
		target := &c.ctrls[len(c.ctrls)-1-depth]
		lt := target.labelTypes()
		for i := len(lt) - 1; i >= 0; i-- {
			if _, err := c.popOp(lt[i]); err != nil {
				return err
			}
		}
		for _, t := range lt {
			c.pushOp(t)
		}
	case wasm.OpBrTable:
		if _, err := c.popOp(wasm.I32); err != nil {
			return err
		}
		// Its entries are the side table's next B, at least one (a
		// decoded module has that by construction, a built one may not).
		rest := c.targets
		if in.B == 0 || in.A != c.used || uint64(in.B) > uint64(len(rest)) {
			return fmt.Errorf("br_table entries [%d, %d+%d) of %d, the next one %d", in.A, in.A, in.B, c.used+uint64(len(rest)), c.used)
		}
		c.targets, c.used = rest[in.B:], c.used+uint64(in.B)
		tbl := rest[:in.B]
		def := int(tbl[len(tbl)-1])
		if def >= len(c.ctrls) {
			return fmt.Errorf("br_table default depth %d exceeds control stack", def)
		}
		defTypes := c.ctrls[len(c.ctrls)-1-def].labelTypes()
		for _, t := range tbl[:len(tbl)-1] {
			if int(t) >= len(c.ctrls) {
				return fmt.Errorf("br_table depth %d exceeds control stack", t)
			}
			lt := c.ctrls[len(c.ctrls)-1-int(t)].labelTypes()
			if len(lt) != len(defTypes) {
				return fmt.Errorf("br_table target arities differ")
			}
			for i := range lt {
				if lt[i] != defTypes[i] {
					return fmt.Errorf("br_table target types differ")
				}
			}
		}
		for i := len(defTypes) - 1; i >= 0; i-- {
			if _, err := c.popOp(defTypes[i]); err != nil {
				return err
			}
		}
		c.setUnreachable()
	case wasm.OpReturn:
		res := c.ctrls[0].endTypes
		for i := len(res) - 1; i >= 0; i-- {
			if _, err := c.popOp(res[i]); err != nil {
				return err
			}
		}
		c.setUnreachable()
	case wasm.OpCall:
		idx := int(in.A)
		if idx >= len(v.funcs) {
			return fmt.Errorf("call to function %d out of range", idx)
		}
		ft := v.funcs[idx]
		for i := len(ft.Params) - 1; i >= 0; i-- {
			if _, err := c.popOp(ft.Params[i]); err != nil {
				return err
			}
		}
		for _, t := range ft.Results {
			c.pushOp(t)
		}
	case wasm.OpCallIndirect:
		if v.numTabs == 0 {
			return fmt.Errorf("call_indirect with no table declared")
		}
		ti := int(in.A)
		if ti >= len(v.m.Types) {
			return fmt.Errorf("call_indirect type %d out of range", ti)
		}
		if _, err := c.popOp(wasm.I32); err != nil {
			return err
		}
		ft := v.m.Types[ti]
		for i := len(ft.Params) - 1; i >= 0; i-- {
			if _, err := c.popOp(ft.Params[i]); err != nil {
				return err
			}
		}
		for _, t := range ft.Results {
			c.pushOp(t)
		}
	case wasm.OpDrop:
		if _, err := c.popOpAny(); err != nil {
			return err
		}
	case wasm.OpSelect:
		if _, err := c.popOp(wasm.I32); err != nil {
			return err
		}
		t1, err := c.popOpAny()
		if err != nil {
			return err
		}
		t2, err := c.popOpAny()
		if err != nil {
			return err
		}
		if t1 != t2 && t1 != unknown && t2 != unknown {
			return fmt.Errorf("select operands differ: %s vs %s", t1, t2)
		}
		if t1 == unknown {
			c.pushOp(t2)
		} else {
			c.pushOp(t1)
		}
	case wasm.OpLocalGet:
		idx := int(in.A)
		if idx >= len(c.locals) {
			return fmt.Errorf("local %d out of range", idx)
		}
		c.pushOp(c.locals[idx])
	case wasm.OpLocalSet:
		idx := int(in.A)
		if idx >= len(c.locals) {
			return fmt.Errorf("local %d out of range", idx)
		}
		if _, err := c.popOp(c.locals[idx]); err != nil {
			return err
		}
	case wasm.OpLocalTee:
		idx := int(in.A)
		if idx >= len(c.locals) {
			return fmt.Errorf("local %d out of range", idx)
		}
		if _, err := c.popOp(c.locals[idx]); err != nil {
			return err
		}
		c.pushOp(c.locals[idx])
	case wasm.OpGlobalGet:
		idx := int(in.A)
		if idx >= len(v.globals) {
			return fmt.Errorf("global %d out of range", idx)
		}
		c.pushOp(v.globals[idx].Type)
	case wasm.OpGlobalSet:
		idx := int(in.A)
		if idx >= len(v.globals) {
			return fmt.Errorf("global %d out of range", idx)
		}
		if !v.globals[idx].Mutable {
			return fmt.Errorf("global %d is immutable", idx)
		}
		if _, err := c.popOp(v.globals[idx].Type); err != nil {
			return err
		}
	case wasm.OpMemorySize:
		if v.numMems == 0 {
			return fmt.Errorf("memory.size with no memory declared")
		}
		c.pushOp(wasm.I32)
	case wasm.OpMemoryGrow:
		if v.numMems == 0 {
			return fmt.Errorf("memory.grow with no memory declared")
		}
		if _, err := c.popOp(wasm.I32); err != nil {
			return err
		}
		c.pushOp(wasm.I32)
	case wasm.OpI32Const:
		c.pushOp(wasm.I32)
	case wasm.OpI64Const:
		c.pushOp(wasm.I64)
	case wasm.OpF32Const:
		c.pushOp(wasm.F32)
	case wasm.OpF64Const:
		c.pushOp(wasm.F64)
	case wasm.OpPrefix:
		return v.checkPrefixed(c, in)
	default:
		if sig := &simpleSigs[op]; sig.in != nil {
			for i := len(sig.in) - 1; i >= 0; i-- {
				if _, err := c.popOp(sig.in[i]); err != nil {
					return err
				}
			}
			for _, t := range sig.out {
				c.pushOp(t)
			}
			return nil
		}
		if op.IsLoad() || op.IsStore() {
			return v.checkMemAccess(c, in)
		}
		return fmt.Errorf("unknown opcode %s", op)
	}
	return nil
}

func (v *validator) checkMemAccess(c *bodyChecker, in wasm.Instr) error {
	op := in.Op
	if op.IsStore() {
		var valType wasm.ValueType
		switch op {
		case wasm.OpI32Store, wasm.OpI32Store8, wasm.OpI32Store16:
			valType = wasm.I32
		case wasm.OpI64Store, wasm.OpI64Store8, wasm.OpI64Store16, wasm.OpI64Store32:
			valType = wasm.I64
		case wasm.OpF32Store:
			valType = wasm.F32
		case wasm.OpF64Store:
			valType = wasm.F64
		}
		if _, err := c.popOp(valType); err != nil {
			return err
		}
		if _, err := c.popOp(wasm.I32); err != nil {
			return err
		}
		return nil
	}
	// Loads pop an i32 address and push the loaded value.
	if _, err := c.popOp(wasm.I32); err != nil {
		return err
	}
	switch op {
	case wasm.OpI32Load, wasm.OpI32Load8S, wasm.OpI32Load8U,
		wasm.OpI32Load16S, wasm.OpI32Load16U:
		c.pushOp(wasm.I32)
	case wasm.OpI64Load, wasm.OpI64Load8S, wasm.OpI64Load8U,
		wasm.OpI64Load16S, wasm.OpI64Load16U, wasm.OpI64Load32S, wasm.OpI64Load32U:
		c.pushOp(wasm.I64)
	case wasm.OpF32Load:
		c.pushOp(wasm.F32)
	case wasm.OpF64Load:
		c.pushOp(wasm.F64)
	}
	return nil
}

func (v *validator) checkPrefixed(c *bodyChecker, in wasm.Instr) error {
	switch in.Sub {
	case wasm.SubI32TruncSatF32S, wasm.SubI32TruncSatF32U:
		return c.unop(wasm.F32, wasm.I32)
	case wasm.SubI32TruncSatF64S, wasm.SubI32TruncSatF64U:
		return c.unop(wasm.F64, wasm.I32)
	case wasm.SubI64TruncSatF32S, wasm.SubI64TruncSatF32U:
		return c.unop(wasm.F32, wasm.I64)
	case wasm.SubI64TruncSatF64S, wasm.SubI64TruncSatF64U:
		return c.unop(wasm.F64, wasm.I64)
	case wasm.SubMemoryCopy, wasm.SubMemoryFill:
		if v.numMems == 0 {
			return fmt.Errorf("%s with no memory declared", in.Sub)
		}
		for i := 0; i < 3; i++ {
			if _, err := c.popOp(wasm.I32); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("unsupported prefixed opcode %d", in.Sub)
	}
}

func (c *bodyChecker) unop(in, out wasm.ValueType) error {
	if _, err := c.popOp(in); err != nil {
		return err
	}
	c.pushOp(out)
	return nil
}

type sig struct {
	in  []wasm.ValueType
	out []wasm.ValueType
}

func mk(in []wasm.ValueType, out ...wasm.ValueType) sig { return sig{in: in, out: out} }

var (
	i32 = wasm.I32
	i64 = wasm.I64
	f32 = wasm.F32
	f64 = wasm.F64
	tI  = []wasm.ValueType{i32}
	tII = []wasm.ValueType{i32, i32}
	tL  = []wasm.ValueType{i64}
	tLL = []wasm.ValueType{i64, i64}
	tF  = []wasm.ValueType{f32}
	tFF = []wasm.ValueType{f32, f32}
	tD  = []wasm.ValueType{f64}
	tDD = []wasm.ValueType{f64, f64}
)

// simpleSigs covers every fixed-signature numeric instruction, indexed
// by opcode; each takes at least one operand, so an entry with no
// inputs is an opcode that is not one of them.
var simpleSigs [256]sig

func init() {
	add := func(ops []wasm.Opcode, s sig) {
		for _, op := range ops {
			simpleSigs[op] = s
		}
	}
	add([]wasm.Opcode{wasm.OpI32Eqz}, mk(tI, i32))
	add(rangeOps(wasm.OpI32Eq, wasm.OpI32GeU), mk(tII, i32))
	add([]wasm.Opcode{wasm.OpI64Eqz}, mk(tL, i32))
	add(rangeOps(wasm.OpI64Eq, wasm.OpI64GeU), mk(tLL, i32))
	add(rangeOps(wasm.OpF32Eq, wasm.OpF32Ge), mk(tFF, i32))
	add(rangeOps(wasm.OpF64Eq, wasm.OpF64Ge), mk(tDD, i32))
	add(rangeOps(wasm.OpI32Clz, wasm.OpI32Popcnt), mk(tI, i32))
	add(rangeOps(wasm.OpI32Add, wasm.OpI32Rotr), mk(tII, i32))
	add(rangeOps(wasm.OpI64Clz, wasm.OpI64Popcnt), mk(tL, i64))
	add(rangeOps(wasm.OpI64Add, wasm.OpI64Rotr), mk(tLL, i64))
	add(rangeOps(wasm.OpF32Abs, wasm.OpF32Sqrt), mk(tF, f32))
	add(rangeOps(wasm.OpF32Add, wasm.OpF32Copysign), mk(tFF, f32))
	add(rangeOps(wasm.OpF64Abs, wasm.OpF64Sqrt), mk(tD, f64))
	add(rangeOps(wasm.OpF64Add, wasm.OpF64Copysign), mk(tDD, f64))

	simpleSigs[wasm.OpI32WrapI64] = mk(tL, i32)
	simpleSigs[wasm.OpI32TruncF32S] = mk(tF, i32)
	simpleSigs[wasm.OpI32TruncF32U] = mk(tF, i32)
	simpleSigs[wasm.OpI32TruncF64S] = mk(tD, i32)
	simpleSigs[wasm.OpI32TruncF64U] = mk(tD, i32)
	simpleSigs[wasm.OpI64ExtendI32S] = mk(tI, i64)
	simpleSigs[wasm.OpI64ExtendI32U] = mk(tI, i64)
	simpleSigs[wasm.OpI64TruncF32S] = mk(tF, i64)
	simpleSigs[wasm.OpI64TruncF32U] = mk(tF, i64)
	simpleSigs[wasm.OpI64TruncF64S] = mk(tD, i64)
	simpleSigs[wasm.OpI64TruncF64U] = mk(tD, i64)
	simpleSigs[wasm.OpF32ConvertI32S] = mk(tI, f32)
	simpleSigs[wasm.OpF32ConvertI32U] = mk(tI, f32)
	simpleSigs[wasm.OpF32ConvertI64S] = mk(tL, f32)
	simpleSigs[wasm.OpF32ConvertI64U] = mk(tL, f32)
	simpleSigs[wasm.OpF32DemoteF64] = mk(tD, f32)
	simpleSigs[wasm.OpF64ConvertI32S] = mk(tI, f64)
	simpleSigs[wasm.OpF64ConvertI32U] = mk(tI, f64)
	simpleSigs[wasm.OpF64ConvertI64S] = mk(tL, f64)
	simpleSigs[wasm.OpF64ConvertI64U] = mk(tL, f64)
	simpleSigs[wasm.OpF64PromoteF32] = mk(tF, f64)
	simpleSigs[wasm.OpI32ReinterpretF32] = mk(tF, i32)
	simpleSigs[wasm.OpI64ReinterpretF64] = mk(tD, i64)
	simpleSigs[wasm.OpF32ReinterpretI32] = mk(tI, f32)
	simpleSigs[wasm.OpF64ReinterpretI64] = mk(tL, f64)
	simpleSigs[wasm.OpI32Extend8S] = mk(tI, i32)
	simpleSigs[wasm.OpI32Extend16S] = mk(tI, i32)
	simpleSigs[wasm.OpI64Extend8S] = mk(tL, i64)
	simpleSigs[wasm.OpI64Extend16S] = mk(tL, i64)
	simpleSigs[wasm.OpI64Extend32S] = mk(tL, i64)
}

func rangeOps(lo, hi wasm.Opcode) []wasm.Opcode {
	ops := make([]wasm.Opcode, 0, hi-lo+1)
	for op := lo; op <= hi; op++ {
		ops = append(ops, op)
	}
	return ops
}
