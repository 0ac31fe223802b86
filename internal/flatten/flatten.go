// Package flatten lowers validated WebAssembly function bodies into
// a flat instruction stream with resolved branch targets, static
// operand-stack heights, and cycle-model classes. Both execution
// engines build on it: the threaded interpreter dispatches over the
// stream directly, and the closure compiler uses the static heights
// to assign every operand a fixed register slot.
package flatten

import (
	"fmt"

	"leapsandbounds/internal/isa"
	"leapsandbounds/internal/wasm"
)

// Instr is one flattened instruction. Branch-like instructions carry
// an absolute target pc, the operand-stack height to unwind to, and
// the number of carried values (0 or 1 in the MVP).
type Instr struct {
	Op    wasm.Opcode
	Sub   wasm.SubOpcode
	A     uint64 // primary immediate (const bits, indices)
	B     uint64 // secondary immediate (memory offset)
	Tgt   int32  // branch target pc
	PopTo int32  // operand height to unwind to on branch / call arg base
	Arity int8   // values carried across the branch / call results
	H     int32  // operand-stack height before this instruction
	Class isa.OpClass
	Table []BranchTarget // br_table entries (default entry last)
	// PureAddr is base/offset provenance for memory accesses: true
	// when the address operand of this load/store is built purely
	// from local reads, constants and arithmetic — no loads, calls,
	// globals or control-flow joins feed it. Such addresses cannot be
	// changed by intervening memory writes, which is the precondition
	// the compiled engines' bounds-check elision pass needs before
	// grouping accesses under one range check (DESIGN.md §11). The
	// static offset part of the provenance is B, as before.
	PureAddr bool
	// Target is true when some branch, if or loop lands on this
	// instruction. The interpreter's operand folding never reaches
	// across one: a target starts a fold window or stands alone.
	Target bool
}

// BranchTarget is one br_table entry.
type BranchTarget struct {
	Tgt   int32
	PopTo int32
	Arity int8
}

// Func is one flattened function.
type Func struct {
	Name string
	// Index is the function-space index (imports included); the
	// profiler's per-instance cells publish it per dispatched op.
	Index     uint32
	Type      wasm.FuncType
	NumParams int
	NumLocals int // params + declared locals
	MaxStack  int // operand stack slots needed
	Code      []Instr
}

// Internal pseudo-opcodes for resolved control flow, placed in the
// unused opcode space 0x06–0x0A. Flatten never emits OpAccount: the
// interpreter puts one in front of every instruction of the streams it
// runs with cycle counting or a profiler cell, to charge the Class of
// the instruction that follows. The interpreter's fused operand forms
// take their private opcodes from 0xC5 up (internal/interp/fold.go);
// neither range holds an opcode the validator accepts.
const (
	OpIfFalse   wasm.Opcode = 0x06 // jump to Tgt when popped value is zero
	OpJump      wasm.Opcode = 0x07 // unconditional jump carrying Arity values
	OpBranchIf  wasm.Opcode = 0x08 // jump when popped value is non-zero
	OpReturnEnd wasm.Opcode = 0x09 // function epilogue
	OpAccount   wasm.Opcode = 0x0A // account for the next instruction
)

// A patch site is either a plain instruction index (the instr's Tgt
// is patched) or an encoded br_table entry (that entry's Tgt is
// patched). Table patches are encoded as -(instr<<16 + entry + 1).
func encodeTablePatch(instrIdx, entry int) int { return -(instrIdx<<16 + entry + 1) }

func applyPatches(out []Instr, fixes []int, target int32) {
	for _, fix := range fixes {
		if fix >= 0 {
			out[fix].Tgt = target
			continue
		}
		v := -fix - 1
		out[v>>16].Table[v&0xffff].Tgt = target
	}
}

// ctrl is one entry of the flattener's control stack.
type ctrl struct {
	op      wasm.Opcode // block, loop, if/else (or 0 = function body)
	height  int32       // operand height at entry
	arity   int8        // result arity of the construct
	loopPC  int32       // for loops: pc of the first body instruction
	brs     []int       // patch sites targeting this construct's end
	elseFix int         // pc of the if's conditional jump, -1 when patched
	wasDead bool        // construct was entered inside dead code
}

// Flatten lowers a validated function body.
func Flatten(m *wasm.Module, fnIndex uint32, code *wasm.Code) (*Func, error) {
	ft, err := m.FuncTypeAt(fnIndex)
	if err != nil {
		return nil, err
	}
	p := &Func{
		Index:     fnIndex,
		Type:      ft,
		NumParams: len(ft.Params),
		NumLocals: len(ft.Params) + len(code.Locals),
	}
	if m.FuncNames != nil {
		p.Name = m.FuncNames[fnIndex]
	}

	var (
		// Every body instruction flattens to at most one Instr (block,
		// loop, nop and inner end to none), so out never regrows.
		out    = make([]Instr, 0, len(code.Body))
		stack  []ctrl
		height int32
		maxH   int32
		dead   bool
		// pure tracks, per operand-stack slot, whether the value was
		// built purely from locals/constants/arithmetic (address
		// provenance for Instr.PureAddr). Conservative: control-flow
		// joins and anything memory- or call-derived clear it.
		pure []bool
		// joined is set where a forward branch or an if is patched to
		// land on the next instruction emitted, which becomes a Target.
		joined bool
	)
	push := func(n int32) {
		height += n
		if height > maxH {
			maxH = height
		}
	}
	setPure := func(h int32, v bool) {
		for int(h) >= len(pure) {
			pure = append(pure, false)
		}
		pure[h] = v
	}
	isPure := func(h int32) bool { return h >= 0 && int(h) < len(pure) && pure[h] }
	// clearPure marks [from, to) impure, for join points where a
	// value may arrive from multiple predecessors.
	clearPure := func(from, to int32) {
		for h := from; h < to; h++ {
			setPure(h, false)
		}
	}
	emit := func(in Instr) int {
		in.Target, joined = joined, false
		out = append(out, in)
		return len(out) - 1
	}
	// land patches the branches in fixes to the next instruction.
	land := func(fixes []int) {
		if len(fixes) > 0 {
			applyPatches(out, fixes, int32(len(out)))
			joined = true
		}
	}
	// landElse patches an if's conditional jump to the next instruction.
	landElse := func(c *ctrl) {
		if c.elseFix >= 0 {
			out[c.elseFix].Tgt = int32(len(out))
			c.elseFix = -1
			joined = true
		}
	}
	blockArity := func(bt byte) int8 {
		if bt == wasm.BlockEmpty {
			return 0
		}
		return 1
	}
	branchTo := func(depth int, addPatch func(c *ctrl)) BranchTarget {
		c := &stack[len(stack)-1-depth]
		if c.op == wasm.OpLoop {
			// The branch itself is emitted, so the loop's first
			// instruction is too.
			out[c.loopPC].Target = true
			return BranchTarget{Tgt: c.loopPC, PopTo: c.height, Arity: 0}
		}
		addPatch(c)
		return BranchTarget{PopTo: c.height, Arity: c.arity}
	}
	finishFunc := func(c ctrl) *Func {
		land(c.brs)
		// The function-end join reads the result from the canonical
		// slot: live fallthrough arrives with height == arity
		// (validation guarantees it), and every branch to the end
		// deposits its carried value at slots [0, arity). Using the
		// flattener's current height here would be stale when the
		// end is reachable only through branches.
		emit(Instr{Op: OpReturnEnd, Arity: c.arity, H: int32(c.arity), Class: isa.ClassBranch})
		p.Code = out
		p.MaxStack = int(maxH) + 8
		return p
	}

	stack = append(stack, ctrl{op: 0, arity: int8(len(ft.Results)), elseFix: -1})

	for idx := 0; idx < len(code.Body); idx++ {
		in := code.Body[idx]
		op := in.Op

		if dead {
			switch op {
			case wasm.OpBlock, wasm.OpLoop, wasm.OpIf:
				stack = append(stack, ctrl{op: op, height: height,
					arity: blockArity(in.BlockType()), elseFix: -1, wasDead: true})
			case wasm.OpElse:
				c := &stack[len(stack)-1]
				if c.wasDead {
					continue
				}
				height = c.height
				dead = false
				landElse(c)
				c.op = wasm.OpElse
			case wasm.OpEnd:
				c := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if len(stack) == 0 {
					return finishFunc(c), nil
				}
				if !c.wasDead {
					if len(c.brs) > 0 || c.elseFix >= 0 {
						land(c.brs)
						landElse(&c)
						height = c.height + int32(c.arity)
						if height > maxH {
							maxH = height
						}
						clearPure(c.height, height)
						dead = false
					}
				}
			}
			continue
		}

		switch op {
		case wasm.OpNop:
			// elided
		case wasm.OpUnreachable:
			emit(Instr{Op: op, H: height, Class: isa.ClassBranch})
			dead = true
		case wasm.OpBlock:
			stack = append(stack, ctrl{op: op, height: height,
				arity: blockArity(in.BlockType()), elseFix: -1})
		case wasm.OpLoop:
			stack = append(stack, ctrl{op: op, height: height,
				arity: blockArity(in.BlockType()), loopPC: int32(len(out)), elseFix: -1})
		case wasm.OpIf:
			push(-1)
			fix := emit(Instr{Op: OpIfFalse, H: height + 1, Class: isa.ClassBranch})
			stack = append(stack, ctrl{op: op, height: height,
				arity: blockArity(in.BlockType()), elseFix: fix})
		case wasm.OpElse:
			c := &stack[len(stack)-1]
			j := emit(Instr{Op: OpJump, PopTo: c.height, Arity: c.arity, H: height, Class: isa.ClassBranch})
			c.brs = append(c.brs, j)
			landElse(c)
			height = c.height
			c.op = wasm.OpElse
		case wasm.OpEnd:
			c := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if len(stack) == 0 {
				return finishFunc(c), nil
			}
			land(c.brs)
			landElse(&c)
			height = c.height + int32(c.arity)
			if height > maxH {
				maxH = height
			}
			// Join point: the result may arrive from any branch.
			clearPure(c.height, height)
		case wasm.OpBr:
			j := emit(Instr{Op: OpJump, H: height, Class: isa.ClassBranch})
			bt := branchTo(int(in.A), func(c *ctrl) { c.brs = append(c.brs, j) })
			out[j].Tgt, out[j].PopTo, out[j].Arity = bt.Tgt, bt.PopTo, bt.Arity
			dead = true
		case wasm.OpBrIf:
			push(-1)
			j := emit(Instr{Op: OpBranchIf, H: height + 1, Class: isa.ClassBranch})
			bt := branchTo(int(in.A), func(c *ctrl) { c.brs = append(c.brs, j) })
			out[j].Tgt, out[j].PopTo, out[j].Arity = bt.Tgt, bt.PopTo, bt.Arity
		case wasm.OpBrTable:
			push(-1)
			j := emit(Instr{Op: op, H: height + 1, Class: isa.ClassBranch})
			table := make([]BranchTarget, 0, len(in.Targets)+1)
			for k, depth := range in.Targets {
				k := k
				bt := branchTo(int(depth), func(c *ctrl) {
					c.brs = append(c.brs, encodeTablePatch(j, k))
				})
				table = append(table, bt)
			}
			defIdx := len(table)
			bt := branchTo(int(in.A), func(c *ctrl) {
				c.brs = append(c.brs, encodeTablePatch(j, defIdx))
			})
			table = append(table, bt)
			out[j].Table = table
			dead = true
		case wasm.OpReturn:
			emit(Instr{Op: OpReturnEnd, Arity: int8(len(ft.Results)), H: height, Class: isa.ClassBranch})
			dead = true
		case wasm.OpCall:
			callee, err := m.FuncTypeAt(uint32(in.A))
			if err != nil {
				return nil, err
			}
			argBase := height - int32(len(callee.Params))
			h := height
			push(int32(len(callee.Results) - len(callee.Params)))
			clearPure(argBase, height)
			emit(Instr{Op: op, A: in.A, PopTo: argBase, H: h,
				Arity: int8(len(callee.Results)), Class: isa.ClassCall})
		case wasm.OpCallIndirect:
			callee := m.Types[in.A]
			h := height
			push(-1) // table index
			argBase := height - int32(len(callee.Params))
			push(int32(len(callee.Results) - len(callee.Params)))
			clearPure(argBase, height)
			emit(Instr{Op: op, A: in.A, PopTo: argBase, H: h,
				Arity: int8(len(callee.Results)), Class: isa.ClassCallInd})
		case wasm.OpDrop:
			push(-1)
			emit(Instr{Op: op, H: height + 1, Class: isa.ClassALU})
		case wasm.OpSelect:
			selPure := isPure(height-3) && isPure(height-2)
			push(-2)
			emit(Instr{Op: op, H: height + 2, Class: isa.ClassSelect})
			setPure(height-1, selPure)
		case wasm.OpLocalGet:
			push(1)
			setPure(height-1, true)
			emit(Instr{Op: op, A: in.A, H: height - 1, Class: isa.ClassALU})
		case wasm.OpLocalSet:
			push(-1)
			emit(Instr{Op: op, A: in.A, H: height + 1, Class: isa.ClassALU})
		case wasm.OpLocalTee:
			emit(Instr{Op: op, A: in.A, H: height, Class: isa.ClassALU})
		case wasm.OpGlobalGet:
			push(1)
			setPure(height-1, false)
			emit(Instr{Op: op, A: in.A, H: height - 1, Class: isa.ClassGlobal})
		case wasm.OpGlobalSet:
			push(-1)
			emit(Instr{Op: op, A: in.A, H: height + 1, Class: isa.ClassGlobal})
		case wasm.OpMemorySize:
			push(1)
			setPure(height-1, false)
			emit(Instr{Op: op, H: height - 1, Class: isa.ClassALU})
		case wasm.OpMemoryGrow:
			setPure(height-1, false)
			emit(Instr{Op: op, H: height, Class: isa.ClassCall})
		case wasm.OpI32Const, wasm.OpI64Const, wasm.OpF32Const, wasm.OpF64Const:
			push(1)
			setPure(height-1, true)
			emit(Instr{Op: op, A: in.A, H: height - 1, Class: isa.ClassALU})
		case wasm.OpPrefix:
			switch in.Sub {
			case wasm.SubMemoryCopy, wasm.SubMemoryFill:
				push(-3)
				emit(Instr{Op: op, Sub: in.Sub, H: height + 3, Class: isa.ClassCall})
			default: // saturating truncations
				emit(Instr{Op: op, Sub: in.Sub, H: height, Class: isa.ClassConv})
			}
		default:
			class, delta, ok := Classify(op)
			if !ok {
				return nil, fmt.Errorf("flatten: unsupported opcode %s", op)
			}
			h := height
			push(delta)
			ni := Instr{Op: op, A: in.A, B: in.B, H: h, Class: class}
			switch {
			case op.IsLoad():
				// Address at h-1 is consumed; the loaded value is not
				// derivable from locals and constants.
				ni.PureAddr = isPure(h - 1)
				setPure(h-1, false)
			case op.IsStore():
				// Address at h-2, value at h-1; both popped.
				ni.PureAddr = isPure(h - 2)
			case delta == -1:
				// Binary op: result pure iff both operands were.
				setPure(h-2, isPure(h-2) && isPure(h-1))
			}
			emit(ni)
		}
	}
	return nil, fmt.Errorf("flatten: function body missing final end")
}

// Classify returns the cycle class and stack delta for pure numeric
// and memory opcodes.
func Classify(op wasm.Opcode) (isa.OpClass, int32, bool) {
	if op.IsLoad() {
		return isa.ClassLoad, 0, true // pop addr, push value
	}
	if op.IsStore() {
		return isa.ClassStore, -2, true
	}
	switch {
	case op == wasm.OpI32Eqz || op == wasm.OpI64Eqz:
		return isa.ClassALU, 0, true
	case op >= wasm.OpI32Eq && op <= wasm.OpI32GeU,
		op >= wasm.OpI64Eq && op <= wasm.OpI64GeU:
		return isa.ClassALU, -1, true
	case op >= wasm.OpF32Eq && op <= wasm.OpF64Ge:
		return isa.ClassFAdd, -1, true
	case op >= wasm.OpI32Clz && op <= wasm.OpI32Popcnt,
		op >= wasm.OpI64Clz && op <= wasm.OpI64Popcnt:
		return isa.ClassALU, 0, true
	case op == wasm.OpI32Mul || op == wasm.OpI64Mul:
		return isa.ClassMul, -1, true
	case op >= wasm.OpI32DivS && op <= wasm.OpI32RemU,
		op >= wasm.OpI64DivS && op <= wasm.OpI64RemU:
		return isa.ClassDivI, -1, true
	case op >= wasm.OpI32Add && op <= wasm.OpI32Rotr,
		op >= wasm.OpI64Add && op <= wasm.OpI64Rotr:
		return isa.ClassALU, -1, true
	case op == wasm.OpF32Sqrt || op == wasm.OpF64Sqrt:
		return isa.ClassFDiv, 0, true
	case op >= wasm.OpF32Abs && op <= wasm.OpF32Nearest,
		op >= wasm.OpF64Abs && op <= wasm.OpF64Nearest:
		return isa.ClassFAdd, 0, true
	case op == wasm.OpF32Mul || op == wasm.OpF64Mul:
		return isa.ClassFMul, -1, true
	case op == wasm.OpF32Div || op == wasm.OpF64Div:
		return isa.ClassFDiv, -1, true
	case op >= wasm.OpF32Add && op <= wasm.OpF32Copysign:
		return isa.ClassFAdd, -1, true
	case op >= wasm.OpF64Add && op <= wasm.OpF64Copysign:
		return isa.ClassFAdd, -1, true
	case op >= wasm.OpI32WrapI64 && op <= wasm.OpF64ReinterpretI64:
		return isa.ClassConv, 0, true
	case op >= wasm.OpI32Extend8S && op <= wasm.OpI64Extend32S:
		return isa.ClassALU, 0, true
	default:
		return 0, 0, false
	}
}
