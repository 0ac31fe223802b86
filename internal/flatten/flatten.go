// Package flatten lowers validated WebAssembly function bodies into
// a flat instruction stream with resolved branch targets, static
// operand-stack heights, and cycle-model classes. Both execution
// engines build on it: the threaded interpreter dispatches over the
// stream directly, and the compiled engines use the static heights
// to assign every operand a fixed register slot.
//
// An Instr is 32 bytes and holds no pointer, so two fit a cache line
// and the collector never scans a stream: four single bytes (Op, Sub,
// the Mark byte, Arity), three int32 fields (Tgt, PopTo, H) and two
// 64-bit immediates (A, B). The Mark byte is the instruction's
// isa.OpClass in its low seven bits and, in its top bit, whether some
// branch lands on the instruction. A br_table's entries are not in the
// stream: each function has one side table, Func.Targets, and a
// br_table takes the B entries from index A on, its default entry
// last.
package flatten

import (
	"fmt"

	"leapsandbounds/internal/isa"
	"leapsandbounds/internal/wasm"
)

// Instr is one flattened instruction. Branch-like instructions carry
// an absolute target pc, the operand-stack height to unwind to, and
// the number of carried values (0 or 1 in the MVP). A br_table carries
// its entries' place in Func.Targets instead: the first in A, the
// count in B.
type Instr struct {
	Op    wasm.Opcode
	Sub   uint8 // a 0xFC op's wasm.SubOpcode (every one fits a byte)
	Mark  Mark
	Arity int8   // values carried across the branch / call results
	Tgt   int32  // branch target pc
	PopTo int32  // operand height to unwind to on branch / call arg base
	H     int32  // operand-stack height before this instruction
	A     uint64 // primary immediate (const bits, indices)
	B     uint64 // secondary immediate (memory offset, folded constant)
}

// Mark is an instruction's class byte: the isa.OpClass it is charged
// as in the low seven bits, and the target flag in the top bit.
type Mark uint8

const targetBit Mark = 0x80

// Class returns the instruction's cycle-model class.
func (m Mark) Class() isa.OpClass { return isa.OpClass(m &^ targetBit) }

// Target reports whether some branch, if or loop lands on the
// instruction. The interpreter's operand folding never reaches across
// one: a target starts a fold window or stands alone.
func (m Mark) Target() bool { return m&targetBit != 0 }

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
	// Targets holds every br_table's entries, one table after another
	// in stream order.
	Targets []BranchTarget
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
// is patched) or a side-table entry k, encoded as -(k+1) (that entry's
// Tgt is patched).
func applyPatches(out []Instr, targets []BranchTarget, fixes []int, target int32) {
	for _, fix := range fixes {
		if fix >= 0 {
			out[fix].Tgt = target
		} else {
			targets[-fix-1].Tgt = target
		}
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

// Scratch is one worker's reusable flatten memory: the output buffer
// and side table a Flatten call appends to, and the flattener's control
// stack. The compile pipelines give each fan-out worker one, so a
// module's flatten allocates per worker, not per function. What
// Scratch.Flatten returns aliases the buffers: its Code and Targets are
// valid until the next call on the same Scratch, and a caller that
// keeps a stream copies both out (at their exact length). The zero
// value is ready to use.
type Scratch struct {
	out     []Instr
	targets []BranchTarget
	stack   []ctrl
}

// Flatten lowers a validated function body into a stream of its own.
func Flatten(m *wasm.Module, fnIndex uint32, code *wasm.Code) (*Func, error) {
	return new(Scratch).Flatten(m, fnIndex, code)
}

// Flatten lowers a validated function body into sc's buffer.
func (sc *Scratch) Flatten(m *wasm.Module, fnIndex uint32, code *wasm.Code) (*Func, error) {
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
	// Every body instruction flattens to at most one Instr (block, loop,
	// nop and inner end to none), so out never regrows.
	if cap(sc.out) < len(code.Body) {
		sc.out = make([]Instr, 0, len(code.Body))
	}

	var (
		out     = sc.out[:0]
		targets = sc.targets[:0]
		stack   = sc.stack[:0]
		height  int32
		maxH    int32
		dead    bool
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
	// emit appends an instruction with the fields every one has and
	// returns it, for the caller to fill in the rest in place: an Instr
	// is built where it lands, never copied by value.
	emit := func(op wasm.Opcode, h int32, class isa.OpClass) *Instr {
		out = append(out, Instr{})
		in := &out[len(out)-1]
		in.Op, in.H, in.Mark = op, h, Mark(class)
		if joined {
			in.Mark |= targetBit
		}
		joined = false
		return in
	}
	// land patches the branches in fixes to the next instruction.
	land := func(fixes []int) {
		if len(fixes) > 0 {
			applyPatches(out, targets, fixes, int32(len(out)))
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
	// open pushes a construct; its patch list reuses the capacity the
	// last construct at that depth left behind.
	open := func(c ctrl) {
		if len(stack) < cap(stack) {
			c.brs = stack[:len(stack)+1][len(stack)].brs[:0]
		}
		stack = append(stack, c)
	}
	// branchTo resolves a branch at pc to the construct depth levels
	// out: a loop's header is known, anything else is patched when its
	// end is reached, through the patch site fix.
	branchTo := func(depth int, fix int) BranchTarget {
		c := &stack[len(stack)-1-depth]
		if c.op == wasm.OpLoop {
			// The branch itself is emitted, so the loop's first
			// instruction is too.
			out[c.loopPC].Mark |= targetBit
			return BranchTarget{Tgt: c.loopPC, PopTo: c.height, Arity: 0}
		}
		c.brs = append(c.brs, fix)
		return BranchTarget{PopTo: c.height, Arity: c.arity}
	}
	finishFunc := func(c *ctrl) *Func {
		land(c.brs)
		// The function-end join reads the result from the canonical
		// slot: live fallthrough arrives with height == arity
		// (validation guarantees it), and every branch to the end
		// deposits its carried value at slots [0, arity). Using the
		// flattener's current height here would be stale when the
		// end is reachable only through branches.
		emit(OpReturnEnd, int32(c.arity), isa.ClassBranch).Arity = c.arity
		p.Code, p.Targets = out, targets
		p.MaxStack = int(maxH) + 8
		sc.targets, sc.stack = targets[:0], stack[:0]
		return p
	}

	open(ctrl{op: 0, arity: int8(len(ft.Results)), elseFix: -1})

	for idx := range code.Body {
		in := &code.Body[idx]
		op := in.Op

		if dead {
			switch op {
			case wasm.OpBlock, wasm.OpLoop, wasm.OpIf:
				open(ctrl{op: op, height: height,
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
				c := &stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if len(stack) == 0 {
					return finishFunc(c), nil
				}
				if !c.wasDead {
					if len(c.brs) > 0 || c.elseFix >= 0 {
						land(c.brs)
						landElse(c)
						height = c.height + int32(c.arity)
						if height > maxH {
							maxH = height
						}
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
			emit(op, height, isa.ClassBranch)
			dead = true
		case wasm.OpBlock:
			open(ctrl{op: op, height: height,
				arity: blockArity(in.BlockType()), elseFix: -1})
		case wasm.OpLoop:
			open(ctrl{op: op, height: height,
				arity: blockArity(in.BlockType()), loopPC: int32(len(out)), elseFix: -1})
		case wasm.OpIf:
			push(-1)
			fix := len(out)
			emit(OpIfFalse, height+1, isa.ClassBranch)
			open(ctrl{op: op, height: height,
				arity: blockArity(in.BlockType()), elseFix: fix})
		case wasm.OpElse:
			c := &stack[len(stack)-1]
			c.brs = append(c.brs, len(out))
			j := emit(OpJump, height, isa.ClassBranch)
			j.PopTo, j.Arity = c.height, c.arity
			landElse(c)
			height = c.height
			c.op = wasm.OpElse
		case wasm.OpEnd:
			c := &stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if len(stack) == 0 {
				return finishFunc(c), nil
			}
			land(c.brs)
			landElse(c)
			height = c.height + int32(c.arity)
			if height > maxH {
				maxH = height
			}
		case wasm.OpBr:
			// The branch is emitted before it resolves: a loop whose
			// first instruction it is marks it a target.
			j := emit(OpJump, height, isa.ClassBranch)
			bt := branchTo(int(in.A), len(out)-1)
			j.Tgt, j.PopTo, j.Arity = bt.Tgt, bt.PopTo, bt.Arity
			dead = true
		case wasm.OpBrIf:
			push(-1)
			j := emit(OpBranchIf, height+1, isa.ClassBranch)
			bt := branchTo(int(in.A), len(out)-1)
			j.Tgt, j.PopTo, j.Arity = bt.Tgt, bt.PopTo, bt.Arity
		case wasm.OpBrTable:
			push(-1)
			j := emit(op, height+1, isa.ClassBranch)
			// The wasm side table has flatten's layout: B depths from A,
			// the default last.
			j.A, j.B = uint64(len(targets)), uint64(in.B)
			for _, depth := range code.Targets[in.A : in.A+uint64(in.B)] {
				targets = append(targets, branchTo(int(depth), -len(targets)-1))
			}
			dead = true
		case wasm.OpReturn:
			emit(OpReturnEnd, height, isa.ClassBranch).Arity = int8(len(ft.Results))
			dead = true
		case wasm.OpCall:
			callee, err := m.FuncTypeAt(uint32(in.A))
			if err != nil {
				return nil, err
			}
			argBase := height - int32(len(callee.Params))
			h := height
			push(int32(len(callee.Results) - len(callee.Params)))
			c := emit(op, h, isa.ClassCall)
			c.A, c.PopTo, c.Arity = in.A, argBase, int8(len(callee.Results))
		case wasm.OpCallIndirect:
			callee := &m.Types[in.A]
			h := height
			push(-1) // table index
			argBase := height - int32(len(callee.Params))
			push(int32(len(callee.Results) - len(callee.Params)))
			c := emit(op, h, isa.ClassCallInd)
			c.A, c.PopTo, c.Arity = in.A, argBase, int8(len(callee.Results))
		case wasm.OpDrop:
			push(-1)
			emit(op, height+1, isa.ClassALU)
		case wasm.OpSelect:
			push(-2)
			emit(op, height+2, isa.ClassSelect)
		case wasm.OpLocalGet:
			push(1)
			emit(op, height-1, isa.ClassALU).A = in.A
		case wasm.OpLocalSet:
			push(-1)
			emit(op, height+1, isa.ClassALU).A = in.A
		case wasm.OpLocalTee:
			emit(op, height, isa.ClassALU).A = in.A
		case wasm.OpGlobalGet:
			push(1)
			emit(op, height-1, isa.ClassGlobal).A = in.A
		case wasm.OpGlobalSet:
			push(-1)
			emit(op, height+1, isa.ClassGlobal).A = in.A
		case wasm.OpMemorySize:
			push(1)
			emit(op, height-1, isa.ClassALU)
		case wasm.OpMemoryGrow:
			emit(op, height, isa.ClassCall)
		case wasm.OpI32Const, wasm.OpI64Const, wasm.OpF32Const, wasm.OpF64Const:
			push(1)
			emit(op, height-1, isa.ClassALU).A = in.A
		case wasm.OpPrefix:
			switch in.Sub {
			case wasm.SubMemoryCopy, wasm.SubMemoryFill:
				push(-3)
				emit(op, height+3, isa.ClassCall).Sub = uint8(in.Sub)
			default: // saturating truncations
				emit(op, height, isa.ClassConv).Sub = uint8(in.Sub)
			}
		default:
			class, delta, ok := Classify(op)
			if !ok {
				return nil, fmt.Errorf("flatten: unsupported opcode %s", op)
			}
			h := height
			push(delta)
			ni := emit(op, h, class)
			ni.A, ni.B = in.A, uint64(in.B)
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
