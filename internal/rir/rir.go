// Package rir is the register IR of the compiled engines: function
// bodies lowered from the wasm stack machine to operations over
// virtual registers with explicit def/use operands. Lowering starts
// from the flatten package's stack-shaped op stream — every operand
// of the stack machine has a statically known frame slot — and then
// runs, in order:
//
//  1. Build: one Inst per flatten.Instr, stack heights translated to
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
//     emitter has a flat closure for the pair.
//
// The bounds-check elision passes (internal/compiled/bce.go) run
// between Lower and FuseMem, over the same Inst stream — their
// range-check guards and folded addresses are part of this IR
// (ShRangeCheck, Inst.Addr), so elision and fusion compose.
package rir

import (
	"fmt"

	"leapsandbounds/internal/flatten"
	"leapsandbounds/internal/isa"
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

// Inst is one register-IR operation. Register indices are
// frame-relative: locals occupy [0, numLocals), virtual registers
// follow (before Lower runs they are the raw stack slots, wasm
// operand height h at slot numLocals + h).
type Inst struct {
	Op    wasm.Opcode
	Sub   wasm.SubOpcode
	Shape Shape
	Dst   int
	A, B  int // source slots
	C     int // third source (select condition, memcopy/fill length)
	AImm  bool
	BImm  bool
	ImmA  uint64
	ImmB  uint64
	Off   uint64 // static memory offset
	// branch metadata
	Tgt      int32
	CarrySrc int // slot carried across the branch (-1 when none)
	CarryDst int
	Table    []flatten.BranchTarget
	// call metadata
	Fidx    uint32 // function index / type index
	ArgBase int    // first argument slot
	NArgs   int8   // argument count (register window above ArgBase)
	Results int8
	// compare-branch fusion: the fused compare opcode and whether
	// the branch fires when the compare is true. A two-target branch
	// (HasElse; the late pass threads jumps onto compare headers) goes
	// to Else instead of the next pc when it does not fire.
	CmpOp    wasm.Opcode
	BrOnTrue bool
	HasElse  bool
	Else     int32

	Class  isa.OpClass
	MemAcc bool // charges the software bounds-check class
	Dead   bool

	// bounds-check elision (internal/compiled/bce.go)
	Pure      bool       // load/store address is derivable from locals+consts
	Unchecked bool       // load/store proven in-range; emit the no-check variant
	Chk       *CheckPlan // ShRangeCheck payload
	Addr      *Lin       // address-mode chain folded into an unchecked access: the address slot's value

	// Fused-pair payload (ShLoadOp, ShOpStore, ShPair, ShPairBr): the
	// two original operations, executed back-to-back in one dispatch.
	// Pair[0] runs first and still writes its destination register, so
	// the fused form is observationally identical to the unfused pair.
	Pair []Inst
}

// CheckPlan is the payload of a ShRangeCheck guard emitted by the
// bounds-check elision passes.
type CheckPlan struct {
	Reval bool // revalidation copy of a loop check (obs accounting)

	// EBB plan: one range relative to a base slot (-1 = absolute).
	BaseSlot int
	Lo       uint64
	N        uint64
	Write    bool

	// Loop plan (Ranges non-nil): induction and bound description
	// plus one evaluated range per hoisted access.
	IndSlot    int
	LimitSlot  int
	LimitImm   uint64
	LimitIsImm bool
	Step       int32
	Ranges     []LoopRange
}

// LoopRange is one hoisted access: Expr evaluates the access's
// address-slot value as a function of the induction value.
type LoopRange struct {
	Expr  EvalFn
	Off   uint64
	Width uint64
	Write bool
}

// EvalFn evaluates a pure address expression against the frame,
// substituting cv for the induction local.
type EvalFn func(st []uint64, base int, cv uint64) uint64

// Build lowers a flattened function to slot IR (one Inst per
// flatten.Instr, same pc numbering so branch targets carry over).
func Build(ff *flatten.Func) ([]Inst, error) {
	nl := ff.NumLocals
	slot := func(h int32) int { return nl + int(h) }
	ir := make([]Inst, 0, len(ff.Code))

	for pc := range ff.Code {
		in := &ff.Code[pc]
		s := Inst{Op: in.Op, Sub: in.Sub, Class: in.Class, CarrySrc: -1}
		h := in.H
		switch in.Op {
		case flatten.OpJump:
			s.Shape = ShJump
			s.Tgt = in.Tgt
			if in.Arity > 0 {
				s.CarrySrc = slot(h - 1)
				s.CarryDst = slot(in.PopTo)
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
				s.CarrySrc = slot(h - 2)
				s.CarryDst = slot(in.PopTo)
			}
		case wasm.OpBrTable:
			s.Shape = ShBrTable
			s.A = slot(h - 1)
			s.Table = make([]flatten.BranchTarget, len(in.Table))
			for i, bt := range in.Table {
				s.Table[i] = flatten.BranchTarget{
					Tgt:   bt.Tgt,
					PopTo: int32(slot(bt.PopTo)), // pre-translate to slots
					Arity: bt.Arity,
				}
			}
			s.CarrySrc = slot(h - 2) // value below the index, if carried
		case flatten.OpReturnEnd:
			s.Shape = ShReturn
			if in.Arity > 0 {
				s.CarrySrc = slot(h - 1)
			}
		case wasm.OpUnreachable:
			s.Shape = ShUnreachable
		case wasm.OpCall:
			s.Shape = ShCall
			s.Fidx = uint32(in.A)
			s.ArgBase = slot(in.PopTo)
			s.NArgs = int8(h - in.PopTo) // H is the pre-call height
			s.Results = in.Arity
		case wasm.OpCallIndirect:
			s.Shape = ShCallInd
			s.Fidx = uint32(in.A) // type index
			s.A = slot(h - 1)     // table index operand
			s.ArgBase = slot(in.PopTo)
			s.NArgs = int8(h - 1 - in.PopTo) // index operand sits above the args
			s.Results = in.Arity
		case wasm.OpDrop:
			s.Shape = ShNop
			s.Dead = true
		case wasm.OpSelect:
			s.Shape = ShSelect
			s.C = slot(h - 1)
			s.B = slot(h - 2)
			s.A = slot(h - 3)
			s.Dst = slot(h - 3)
		case wasm.OpLocalGet:
			s.Shape = ShMove
			s.A = int(in.A)
			s.Dst = slot(h)
		case wasm.OpLocalSet:
			s.Shape = ShMove
			s.A = slot(h - 1)
			s.Dst = int(in.A)
		case wasm.OpLocalTee:
			s.Shape = ShMove
			s.A = slot(h - 1)
			s.Dst = int(in.A)
		case wasm.OpGlobalGet:
			s.Shape = ShGlobalGet
			s.Fidx = uint32(in.A)
			s.Dst = slot(h)
		case wasm.OpGlobalSet:
			s.Shape = ShGlobalSet
			s.Fidx = uint32(in.A)
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
			s.ImmA = in.A
			s.Dst = slot(h)
		case wasm.OpPrefix:
			switch in.Sub {
			case wasm.SubMemoryCopy:
				s.Shape = ShMemCopy
				s.A = slot(h - 3)
				s.B = slot(h - 2)
				s.C = slot(h - 1)
			case wasm.SubMemoryFill:
				s.Shape = ShMemFill
				s.A = slot(h - 3)
				s.B = slot(h - 2)
				s.C = slot(h - 1)
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
				s.MemAcc = true
				s.Pure = in.PureAddr
			} else if in.Op.IsStore() {
				s.Shape = ShStore
				s.A = slot(h - 2) // address
				s.B = slot(h - 1) // value
				s.Off = in.B
				s.MemAcc = true
				s.Pure = in.PureAddr
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
		ir = append(ir, s)
	}
	return ir, nil
}
