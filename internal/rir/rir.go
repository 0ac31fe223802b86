// Package rir is the register IR of the compiled engines: function
// bodies lowered from the wasm stack machine to operations over
// virtual registers with explicit def/use operands. Lowering starts
// from the flatten package's stack-shaped op stream — every operand
// of the stack machine has a statically known frame slot — and then
// runs, in order:
//
//  1. BuildFunc: one Inst per flatten.Instr, stack heights translated to
//     frame slots (same pc numbering, branch targets carry over);
//  2. Optimize: constant folding, copy propagation of locals and
//     constants into consumers, producer→local forwarding and
//     compare+branch fusion — this is the dead push/pop elimination
//     that makes the IR register-shaped (the wazeroir-style
//     lowering), since every move it deletes was stack traffic;
//  3. Lower: dense order-preserving renumbering of the surviving
//     operand slots into virtual registers, shrinking the frame to
//     locals + live registers;
//  4. FuseMem (after bounds-check elision): the late fusion pass —
//     jumps threaded onto compare headers (loop latches) and adjacent
//     producer→consumer pairs fused into one dispatch, wherever the
//     emitter has a flat case for the pair.
//
// The bounds-check elision passes and address folding
// (internal/compiled/bce.go) run between Lower and FuseMem, over the
// same Func — their range-check guards and folded addresses are part
// of this IR (ShRangeCheck, Func.Addr), so elision, folding and fusion
// compose.
//
// A function's IR is a Func: a stream of hot ops (Inst, 48 bytes, no
// pointers) and cold tables for what most ops never carry, which an op
// reaches through its Side index (func.go).
package rir

import (
	"fmt"

	"leapsandbounds/internal/flatten"
	"leapsandbounds/internal/wasm"
)

// Shape classifies IR operations for emission.
type Shape uint8

const (
	ShConst     Shape = iota // dst = immA
	ShMove                   // dst = slot a
	ShUn                     // dst = unop(a)
	ShBin                    // dst = binop(a, b)
	ShSelect                 // dst = cond(c) ? a : b
	ShLoad                   // dst = mem[a + off]
	ShStore                  // mem[a + off] = b
	ShJump                   // unconditional branch (with optional carried value)
	ShIfFalse                // branch when a == 0
	ShBranchIf               // branch when a != 0 (with optional carried value)
	ShCmpBranch              // fused compare + branch
	ShBrTable                // indexed branch
	ShReturn                 // function return
	ShCall                   // direct call
	ShCallInd                // indirect call
	ShGlobalGet              // dst = globals[idx]
	ShGlobalSet              // globals[idx] = a
	ShMemSize                // dst = memory.size
	ShMemGrow                // dst = memory.grow(a)
	ShMemCopy                // memory.copy(a, b, c)
	ShMemFill                // memory.fill(a, b, c)
	ShTruncSat               // dst = truncsat(a)
	ShUnreachable
	ShNop        // deleted/padding
	ShRangeCheck // bounds-check elision guard; branches to tgt on failure
	ShLoadOp     // fused pair: load + ALU op on the loaded value; counts as one memory op
	ShOpStore    // fused pair: ALU op + store of its result; counts as one memory op
	ShPair       // fused pair: any other producer + straight-line consumer; counts as both
	ShPairBr     // fused pair: producer + compare-branch (targets on the pair); counts as both
)

// Flags are an op's one-bit properties, one byte of the hot op.
type Flags uint8

const (
	// AImm: operand A is an immediate, in Imm. On a load or store the
	// address is absolute and already folded into Off.
	AImm Flags = 1 << iota
	// BImm: operand B is an immediate, in Imm — or, when A is one too,
	// in the function's cold table (Func.ImmB).
	BImm
	// BrOnTrue: a compare+branch fires when its compare is true.
	BrOnTrue
	// HasElse: a two-target branch (the late pass threads jumps onto
	// compare headers) goes to Else instead of the next pc when it does
	// not fire.
	HasElse
	// MemAcc: the op charges the software bounds-check class.
	MemAcc
	// Dead: the op is deleted; Compact drops it.
	Dead
	// Unchecked: a load or store proven in range; emit the no-check
	// variant.
	Unchecked
)

// Has reports whether every flag of x is set.
func (f Flags) Has(x Flags) bool { return f&x == x }

// Inst is one register-IR operation: the hot op, 48 bytes with no
// pointer in them, so a stream of them is a fraction of the memory
// the passes copy and nothing the collector scans (TestInstIsCompact
// holds both). What only some ops carry lives in the function's cold
// tables, reached through Side (Func).
//
// Register indices are frame-relative: locals occupy [0, numLocals),
// virtual registers follow (before Lower runs they are the raw stack
// slots, wasm operand height h at slot numLocals + h).
type Inst struct {
	// Imm is the op's immediate: a constant's value, operand A's when
	// AImm is set on an ALU op or compare, else operand B's (BImm), a
	// global's index.
	Imm uint64
	Off uint64 // static memory offset of a load or store
	Dst int32
	A   int32 // source slots
	B   int32
	Tgt int32 // branch target
	// Else is the other target of a two-target branch (HasElse).
	Else int32
	// Side is 1 + the index of the op's entry in the cold table its
	// Shape names, or 0 when it has none (Func).
	Side  int32
	Op    wasm.Opcode
	CmpOp wasm.Opcode // a compare+branch's compare
	Sub   uint8       // a 0xFC op's wasm.SubOpcode (every one fits a byte)
	Shape Shape
	Class uint8 // isa.OpClass of the op (every class fits a byte)
	Flags
}

// immA reports whether operand A is an immediate value, in Imm: on an
// ALU op or compare. (A load's or store's AImm is an absolute address,
// already in Off.)
func (s *Inst) immA() bool {
	return s.Has(AImm) && (s.Shape == ShBin || s.Shape == ShCmpBranch)
}

// BuildFunc lowers a flattened function to slot IR (one Inst per
// flatten.Instr, same pc numbering so branch targets carry over). The
// ops are built in sc's stream, in place.
func BuildFunc(ff *flatten.Func, sc *Scratch) (*Func, error) {
	if sc == nil {
		sc = new(Scratch)
	}
	if cap(sc.code) < len(ff.Code) {
		sc.code = make([]Inst, 0, len(ff.Code))
	}
	nl := int32(ff.NumLocals)
	slot := func(h int32) int32 { return nl + h }
	f := &Func{Code: sc.code[:0], NumLocals: ff.NumLocals}

	for pc := range ff.Code {
		in := &ff.Code[pc]
		f.Code = append(f.Code, Inst{Op: in.Op, Sub: in.Sub, Class: uint8(in.Mark.Class())})
		s := &f.Code[pc]
		h := in.H
		switch in.Op {
		case flatten.OpJump:
			s.Shape = ShJump
			s.Tgt = in.Tgt
			if in.Arity > 0 {
				f.SetCarry(s, slot(h-1), slot(in.PopTo))
			}
		case flatten.OpIfFalse:
			s.Shape = ShIfFalse
			s.A = slot(h - 1)
			s.Tgt = in.Tgt
		case flatten.OpBranchIf:
			s.Shape = ShBranchIf
			s.A = slot(h - 1)
			s.Tgt = in.Tgt
			if in.Arity > 0 {
				f.SetCarry(s, slot(h-2), slot(in.PopTo))
			}
		case wasm.OpBrTable:
			s.Shape = ShBrTable
			s.A = slot(h - 1)
			t := BrTable{
				Targets:  make([]flatten.BranchTarget, in.B),
				CarrySrc: slot(h - 2), // value below the index, if carried
			}
			for i, bt := range ff.Targets[in.A : in.A+in.B] {
				t.Targets[i] = flatten.BranchTarget{
					Tgt:   bt.Tgt,
					PopTo: slot(bt.PopTo), // pre-translate to slots
					Arity: bt.Arity,
				}
			}
			f.SetTable(s, t)
		case flatten.OpReturnEnd:
			s.Shape = ShReturn
			if in.Arity > 0 {
				f.SetCarry(s, slot(h-1), 0)
			}
		case wasm.OpUnreachable:
			s.Shape = ShUnreachable
		case wasm.OpCall:
			s.Shape = ShCall
			f.SetCall(s, Call{
				Fidx:    uint32(in.A),
				ArgBase: slot(in.PopTo),
				NArgs:   int8(h - in.PopTo), // H is the pre-call height
				Results: in.Arity,
			})
		case wasm.OpCallIndirect:
			s.Shape = ShCallInd
			s.A = slot(h - 1) // table index operand
			f.SetCall(s, Call{
				Fidx:    uint32(in.A), // type index
				ArgBase: slot(in.PopTo),
				NArgs:   int8(h - 1 - in.PopTo), // index operand sits above the args
				Results: in.Arity,
			})
		case wasm.OpDrop:
			s.Shape = ShNop
			s.Flags |= Dead
		case wasm.OpSelect:
			s.Shape = ShSelect
			f.SetC(s, slot(h-1))
			s.B = slot(h - 2)
			s.A = slot(h - 3)
			s.Dst = slot(h - 3)
		case wasm.OpLocalGet:
			s.Shape = ShMove
			s.A = int32(in.A)
			s.Dst = slot(h)
		case wasm.OpLocalSet:
			s.Shape = ShMove
			s.A = slot(h - 1)
			s.Dst = int32(in.A)
		case wasm.OpLocalTee:
			s.Shape = ShMove
			s.A = slot(h - 1)
			s.Dst = int32(in.A)
		case wasm.OpGlobalGet:
			s.Shape = ShGlobalGet
			s.Imm = in.A
			s.Dst = slot(h)
		case wasm.OpGlobalSet:
			s.Shape = ShGlobalSet
			s.Imm = in.A
			s.A = slot(h - 1)
		case wasm.OpMemorySize:
			s.Shape = ShMemSize
			s.Dst = slot(h)
		case wasm.OpMemoryGrow:
			s.Shape = ShMemGrow
			s.A = slot(h - 1)
			s.Dst = slot(h - 1)
		case wasm.OpI32Const, wasm.OpI64Const, wasm.OpF32Const, wasm.OpF64Const:
			s.Shape = ShConst
			s.Imm = in.A
			s.Dst = slot(h)
		case wasm.OpPrefix:
			switch wasm.SubOpcode(in.Sub) {
			case wasm.SubMemoryCopy:
				s.Shape = ShMemCopy
				s.A = slot(h - 3)
				s.B = slot(h - 2)
				f.SetC(s, slot(h-1))
			case wasm.SubMemoryFill:
				s.Shape = ShMemFill
				s.A = slot(h - 3)
				s.B = slot(h - 2)
				f.SetC(s, slot(h-1))
			default:
				s.Shape = ShTruncSat
				s.A = slot(h - 1)
				s.Dst = slot(h - 1)
			}
		default:
			if in.Op.IsLoad() {
				s.Shape = ShLoad
				s.A = slot(h - 1)
				s.Dst = slot(h - 1)
				s.Off = in.B
				s.Flags |= MemAcc
			} else if in.Op.IsStore() {
				s.Shape = ShStore
				s.A = slot(h - 2) // address
				s.B = slot(h - 1) // value
				s.Off = in.B
				s.Flags |= MemAcc
			} else {
				_, delta, ok := flatten.Classify(in.Op)
				if !ok {
					return nil, fmt.Errorf("rir: unsupported opcode %s", in.Op)
				}
				switch delta {
				case 0: // unary
					s.Shape = ShUn
					s.A = slot(h - 1)
					s.Dst = slot(h - 1)
				case -1: // binary
					s.Shape = ShBin
					s.A = slot(h - 2)
					s.B = slot(h - 1)
					s.Dst = slot(h - 2)
				default:
					return nil, fmt.Errorf("rir: unexpected stack delta for %s", in.Op)
				}
			}
		}
	}
	return f, nil
}
