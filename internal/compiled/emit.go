package compiled

import (
	"fmt"

	"leapsandbounds/internal/isa"
	"leapsandbounds/internal/rir"
	"leapsandbounds/internal/trap"
	"leapsandbounds/internal/wasm"
)

// cop is one compiled operation: it executes against the instance
// value stack at the given frame base and returns the next pc
// (negative to return from the function).
type cop func(inst *Instance, base int, pc int) int

// noClass marks a dispatch that charges the cycle model one class only.
const noClass isa.OpClass = -1

// emit compiles the slot IR to closures plus the parallel class,
// memory-access and check-elided arrays used by cycle accounting and
// the sampling profiler. A fused pair of the kinds that postdate the
// cycle model (rir.ShPair, rir.ShPairBr) charges both halves' classes,
// so fusing it moves no modelled cycle; load+op and op+store keep
// counting as the one memory-class instruction they always have.
func (cf *cfunc) emit(ir []rir.Inst) error {
	cf.code = make([]cop, len(ir))
	cf.classes = make([]isa.OpClass, len(ir))
	cf.classes2 = make([]isa.OpClass, len(ir))
	cf.memAcc = make([]bool, len(ir))
	cf.elided = make([]bool, len(ir))
	for i := range ir {
		c, err := emitOne(&ir[i], i)
		if err != nil {
			return fmt.Errorf("compiled: op %d (%s): %w", i, ir[i].Op, err)
		}
		cf.code[i] = c
		cf.classes[i] = ir[i].Class
		cf.classes2[i] = noClass
		if ir[i].Shape == rir.ShPair || ir[i].Shape == rir.ShPairBr {
			cf.classes2[i] = ir[i].Pair[1].Class
		}
		cf.memAcc[i] = ir[i].MemAcc
		cf.elided[i] = ir[i].MemAcc && ir[i].Unchecked
	}
	return nil
}

func emitOne(s *rir.Inst, pc int) (cop, error) {
	switch s.Shape {
	case rir.ShNop:
		return func(inst *Instance, base, pc int) int { return pc + 1 }, nil
	case rir.ShConst:
		dst, k := s.Dst, s.ImmA
		return func(inst *Instance, base, pc int) int {
			inst.stack[base+dst] = k
			return pc + 1
		}, nil
	case rir.ShMove:
		dst, src := s.Dst, s.A
		return func(inst *Instance, base, pc int) int {
			st := inst.stack
			st[base+dst] = st[base+src]
			return pc + 1
		}, nil
	case rir.ShUn:
		fn := rir.UnOps[s.Op]
		if fn == nil {
			return nil, fmt.Errorf("no unary implementation")
		}
		dst, src := s.Dst, s.A
		return func(inst *Instance, base, pc int) int {
			st := inst.stack
			st[base+dst] = fn(st[base+src])
			return pc + 1
		}, nil
	case rir.ShTruncSat:
		fn := rir.TruncSatOps[s.Sub]
		if fn == nil {
			return nil, fmt.Errorf("no trunc_sat implementation for %v", s.Sub)
		}
		dst, src := s.Dst, s.A
		return func(inst *Instance, base, pc int) int {
			st := inst.stack
			st[base+dst] = fn(st[base+src])
			return pc + 1
		}, nil
	case rir.ShBin:
		return emitBin(s)
	case rir.ShSelect:
		dst, a, b, c := s.Dst, s.A, s.B, s.C
		return func(inst *Instance, base, pc int) int {
			st := inst.stack
			if uint32(st[base+c]) != 0 {
				st[base+dst] = st[base+a]
			} else {
				st[base+dst] = st[base+b]
			}
			return pc + 1
		}, nil
	case rir.ShLoad:
		if s.Unchecked {
			return emitLoadUnchecked(s)
		}
		return emitLoad(s)
	case rir.ShStore:
		if s.Unchecked {
			return emitStoreUnchecked(s)
		}
		return emitStore(s)
	case rir.ShRangeCheck:
		return emitRangeCheck(s)
	case rir.ShJump:
		tgt := int(s.Tgt)
		if s.CarrySrc >= 0 {
			src, dst := s.CarrySrc, s.CarryDst
			return func(inst *Instance, base, pc int) int {
				st := inst.stack
				st[base+dst] = st[base+src]
				return tgt
			}, nil
		}
		return func(inst *Instance, base, pc int) int { return tgt }, nil
	case rir.ShIfFalse:
		tgt, a := int(s.Tgt), s.A
		return func(inst *Instance, base, pc int) int {
			if uint32(inst.stack[base+a]) == 0 {
				return tgt
			}
			return pc + 1
		}, nil
	case rir.ShBranchIf:
		tgt, a := int(s.Tgt), s.A
		if s.CarrySrc >= 0 {
			src, dst := s.CarrySrc, s.CarryDst
			return func(inst *Instance, base, pc int) int {
				st := inst.stack
				if uint32(st[base+a]) != 0 {
					st[base+dst] = st[base+src]
					return tgt
				}
				return pc + 1
			}, nil
		}
		return func(inst *Instance, base, pc int) int {
			if uint32(inst.stack[base+a]) != 0 {
				return tgt
			}
			return pc + 1
		}, nil
	case rir.ShCmpBranch:
		return emitCmpBranch(s, pc)
	case rir.ShBrTable:
		idxSlot := s.A
		carrySrc := s.CarrySrc
		table := s.Table
		return func(inst *Instance, base, pc int) int {
			st := inst.stack
			i := int(uint32(st[base+idxSlot]))
			if i >= len(table)-1 {
				i = len(table) - 1
			}
			bt := &table[i]
			if bt.Arity > 0 {
				st[base+int(bt.PopTo)] = st[base+carrySrc]
			}
			return int(bt.Tgt)
		}, nil
	case rir.ShReturn:
		if s.CarrySrc >= 0 {
			src := s.CarrySrc
			return func(inst *Instance, base, pc int) int {
				st := inst.stack
				st[base] = st[base+src]
				return -1
			}, nil
		}
		return func(inst *Instance, base, pc int) int { return -1 }, nil
	case rir.ShUnreachable:
		return func(inst *Instance, base, pc int) int {
			trap.Throw(trap.Unreachable)
			return -1
		}, nil
	case rir.ShCall:
		fidx, argBase := s.Fidx, s.ArgBase
		return func(inst *Instance, base, pc int) int {
			inst.callFunc(fidx, base+argBase)
			return pc + 1
		}, nil
	case rir.ShCallInd:
		typeIdx, idxSlot, argBase := s.Fidx, s.A, s.ArgBase
		return func(inst *Instance, base, pc int) int {
			fi := inst.base.ResolveIndirect(uint32(inst.stack[base+idxSlot]), typeIdx)
			inst.callFunc(fi, base+argBase)
			return pc + 1
		}, nil
	case rir.ShGlobalGet:
		dst, idx := s.Dst, s.Fidx
		return func(inst *Instance, base, pc int) int {
			inst.stack[base+dst] = inst.base.Globals[idx]
			return pc + 1
		}, nil
	case rir.ShGlobalSet:
		src, idx := s.A, s.Fidx
		return func(inst *Instance, base, pc int) int {
			inst.base.Globals[idx] = inst.stack[base+src]
			return pc + 1
		}, nil
	case rir.ShMemSize:
		dst := s.Dst
		return func(inst *Instance, base, pc int) int {
			inst.stack[base+dst] = uint64(inst.base.Mem.SizePages())
			return pc + 1
		}, nil
	case rir.ShMemGrow:
		src, dst := s.A, s.Dst
		return func(inst *Instance, base, pc int) int {
			st := inst.stack
			st[base+dst] = uint64(uint32(inst.base.Mem.Grow(uint32(st[base+src]))))
			return pc + 1
		}, nil
	case rir.ShMemCopy:
		a, b, c := s.A, s.B, s.C
		return func(inst *Instance, base, pc int) int {
			st := inst.stack
			inst.base.Mem.Copy(uint64(uint32(st[base+a])), uint64(uint32(st[base+b])), uint64(uint32(st[base+c])))
			return pc + 1
		}, nil
	case rir.ShMemFill:
		a, b, c := s.A, s.B, s.C
		return func(inst *Instance, base, pc int) int {
			st := inst.stack
			inst.base.Mem.Fill(uint64(uint32(st[base+a])), st[base+b]&0xff, uint64(uint32(st[base+c])))
			return pc + 1
		}, nil
	case rir.ShLoadOp, rir.ShOpStore, rir.ShPair, rir.ShPairBr:
		return emitPair(s, pc)
	default:
		return nil, fmt.Errorf("unknown shape %d", s.Shape)
	}
}

// emitBin compiles a binary op, specializing the hottest opcodes and
// immediate-operand forms.
func emitBin(s *rir.Inst) (cop, error) {
	fn := rir.BinOps[s.Op]
	if fn == nil {
		return nil, fmt.Errorf("no binary implementation")
	}
	dst := s.Dst
	switch {
	case s.AImm && s.BImm:
		// Both constant (possible for non-foldable ops like div).
		ia, ib := s.ImmA, s.ImmB
		return func(inst *Instance, base, pc int) int {
			inst.stack[base+dst] = fn(ia, ib)
			return pc + 1
		}, nil
	case s.BImm:
		a, ib := s.A, s.ImmB
		switch s.Op {
		case wasm.OpI32Add:
			k := uint32(ib)
			return func(inst *Instance, base, pc int) int {
				st := inst.stack
				st[base+dst] = uint64(uint32(st[base+a]) + k)
				return pc + 1
			}, nil
		case wasm.OpI32Mul:
			k := uint32(ib)
			return func(inst *Instance, base, pc int) int {
				st := inst.stack
				st[base+dst] = uint64(uint32(st[base+a]) * k)
				return pc + 1
			}, nil
		case wasm.OpI32Shl:
			k := uint32(ib) & 31
			return func(inst *Instance, base, pc int) int {
				st := inst.stack
				st[base+dst] = uint64(uint32(st[base+a]) << k)
				return pc + 1
			}, nil
		}
		return func(inst *Instance, base, pc int) int {
			st := inst.stack
			st[base+dst] = fn(st[base+a], ib)
			return pc + 1
		}, nil
	case s.AImm:
		ia, b := s.ImmA, s.B
		return func(inst *Instance, base, pc int) int {
			st := inst.stack
			st[base+dst] = fn(ia, st[base+b])
			return pc + 1
		}, nil
	default:
		a, b := s.A, s.B
		switch s.Op {
		case wasm.OpI32Add:
			return func(inst *Instance, base, pc int) int {
				st := inst.stack
				st[base+dst] = uint64(uint32(st[base+a]) + uint32(st[base+b]))
				return pc + 1
			}, nil
		case wasm.OpI32Sub:
			return func(inst *Instance, base, pc int) int {
				st := inst.stack
				st[base+dst] = uint64(uint32(st[base+a]) - uint32(st[base+b]))
				return pc + 1
			}, nil
		case wasm.OpI32Mul:
			return func(inst *Instance, base, pc int) int {
				st := inst.stack
				st[base+dst] = uint64(uint32(st[base+a]) * uint32(st[base+b]))
				return pc + 1
			}, nil
		case wasm.OpF64Add:
			return func(inst *Instance, base, pc int) int {
				st := inst.stack
				st[base+dst] = p64(g64(st[base+a]) + g64(st[base+b]))
				return pc + 1
			}, nil
		case wasm.OpF64Sub:
			return func(inst *Instance, base, pc int) int {
				st := inst.stack
				st[base+dst] = p64(g64(st[base+a]) - g64(st[base+b]))
				return pc + 1
			}, nil
		case wasm.OpF64Mul:
			return func(inst *Instance, base, pc int) int {
				st := inst.stack
				st[base+dst] = p64(g64(st[base+a]) * g64(st[base+b]))
				return pc + 1
			}, nil
		case wasm.OpF64Div:
			return func(inst *Instance, base, pc int) int {
				st := inst.stack
				st[base+dst] = p64(g64(st[base+a]) / g64(st[base+b]))
				return pc + 1
			}, nil
		}
		return func(inst *Instance, base, pc int) int {
			st := inst.stack
			st[base+dst] = fn(st[base+a], st[base+b])
			return pc + 1
		}, nil
	}
}

// cmpLess maps the less-than family of integer compares onto one
// unsigned compare: cmp(a, b) = less(p, q) != neg, where (p, q) is
// (a, b) or, when swap, (b, a), and less(p, q) is
// (p&mask)^flip < (q&mask)^flip — flipping the sign bit turns a signed
// order into the unsigned one.
func cmpLess(op wasm.Opcode) (swap, neg bool, mask, flip uint64, ok bool) {
	const m32, s32, m64, s64 = 1<<32 - 1, 1 << 31, 1<<64 - 1, 1 << 63
	switch op {
	case wasm.OpI32LtS:
		return false, false, m32, s32, true
	case wasm.OpI32GtS:
		return true, false, m32, s32, true
	case wasm.OpI32LeS:
		return true, true, m32, s32, true
	case wasm.OpI32GeS:
		return false, true, m32, s32, true
	case wasm.OpI32LtU:
		return false, false, m32, 0, true
	case wasm.OpI32GtU:
		return true, false, m32, 0, true
	case wasm.OpI32LeU:
		return true, true, m32, 0, true
	case wasm.OpI32GeU:
		return false, true, m32, 0, true
	case wasm.OpI64LtS:
		return false, false, m64, s64, true
	case wasm.OpI64GtS:
		return true, false, m64, s64, true
	case wasm.OpI64LeS:
		return true, true, m64, s64, true
	case wasm.OpI64GeS:
		return false, true, m64, s64, true
	case wasm.OpI64LtU:
		return false, false, m64, 0, true
	case wasm.OpI64GtU:
		return true, false, m64, 0, true
	case wasm.OpI64LeU:
		return true, true, m64, 0, true
	case wasm.OpI64GeU:
		return false, true, m64, 0, true
	}
	return false, false, 0, 0, false
}

// emitCmpBranch compiles a fused compare+branch at pc. The not-taken
// edge of a two-target branch (a threaded jump, rir.Inst.HasElse) is a
// captured pc like the taken one.
func emitCmpBranch(s *rir.Inst, pc int) (cop, error) {
	tgt, els := int(s.Tgt), pc+1
	if s.HasElse {
		els = int(s.Else)
	}
	switch rir.HalfOf(s) {
	case rir.HBrLt:
		b := brLtOf(s, -1, tgt, els)
		// Hot specialization: an i32 signed bound against a slot or a
		// constant, the shape of every counted loop's header and latch.
		if b.mask == 1<<32-1 && b.flip == 1<<31 && b.x.m != 0 {
			x, y, k, t, f := b.x.s, b.y.s, int32(b.y.k), b.t, b.f
			if b.y.m == 0 {
				return func(inst *Instance, base, pc int) int {
					if int32(inst.stack[base+x]) < k {
						return t
					}
					return f
				}, nil
			}
			return func(inst *Instance, base, pc int) int {
				st := inst.stack
				if int32(st[base+x]) < int32(st[base+y]) {
					return t
				}
				return f
			}, nil
		}
		return func(inst *Instance, base, pc int) int { return b.lt(inst.stack, base, 0) }, nil
	case rir.HBrEq:
		b := brEqOf(s, -1, tgt, els)
		return func(inst *Instance, base, pc int) int { return b.eq(inst.stack, base, 0) }, nil
	}
	fn := rir.BinOps[s.CmpOp]
	if fn == nil {
		return nil, fmt.Errorf("no compare implementation for %s", s.CmpOp)
	}
	if !s.BrOnTrue {
		tgt, els = els, tgt
	}
	x, y := operandOf(s.A, s.AImm, s.ImmA, -1), operandOf(s.B, s.BImm, s.ImmB, -1)
	return func(inst *Instance, base, pc int) int {
		st := inst.stack
		if fn(x.get(st, base), y.get(st, base)) != 0 {
			return tgt
		}
		return els
	}, nil
}

// Flat halves. A fused pair runs as one closure only if that closure
// calls nothing: at ~2.4 ns per dispatch, a nested closure call, a
// switch on a captured opcode or a branch on a captured flag costs
// what the fusion saves. So a half is captured data (behind one
// pointer: a struct captured by value is copied to the closure's frame
// on every call) plus inlinable, branch-free accessors, and emitPair
// spells out one closure per fusable pair of halves (rir.FuseMem fuses exactly those).
// The first half writes its register and hands the value on; the
// second takes it in place of the frame read of that register — a
// store-to-load forward is ~5 cycles on the path to the result — and
// reads its other operands from the frame like any op.

// opd is a captured operand, read branch-free: a slot (m all ones), an
// immediate (k) or the first half's value (f all ones); an operand
// that is not a slot reads slot 0 and masks it away.
type opd struct {
	s       int
	m, k, f uint64
}

// operandOf captures a slot-or-immediate operand; a read of slot fwd
// (-1: none) takes the forwarded value instead.
func operandOf(slot int, imm bool, k uint64, fwd int) opd {
	switch {
	case imm:
		return opd{k: k}
	case slot == fwd:
		return opd{f: ^uint64(0)}
	}
	return opd{s: slot, m: ^uint64(0)}
}

func (o *opd) get(st []uint64, base int) uint64 { return st[base+o.s]&o.m | o.k }
func (o *opd) fwd(st []uint64, base int, v uint64) uint64 {
	return st[base+o.s]&o.m | o.k | v&o.f
}

// reg is the register a first half writes; put hands the value on.
type reg struct{ d int }

func (r *reg) put(st []uint64, base int, v uint64) uint64 { st[base+r.d] = v; return v }

// binop is a binary ALU half: operand fetch and result write; the
// closure names the arithmetic between them.
type binop struct {
	reg
	x, y opd
}

func binopOf(s *rir.Inst) *binop { return binopFwd(s, -1) }

// binopFwd is binopOf for a second half that reads slot fwd. When only
// y does and the op is commutative, the operands trade places, so that
// the closure can take the forwarded value for x outright. (For f64
// add and mul the order shows only in which of two NaN payloads
// survives, which Go's own compiler does not preserve either.)
func binopFwd(s *rir.Inst, fwd int) *binop {
	b := &binop{reg: reg{s.Dst}, x: operandOf(s.A, s.AImm, s.ImmA, fwd), y: operandOf(s.B, s.BImm, s.ImmB, fwd)}
	if b.x.f == 0 && b.y.f != 0 && commutative[s.Op] {
		b.x, b.y = b.y, b.x
	}
	return b
}

var commutative = map[wasm.Opcode]bool{
	wasm.OpF64Add: true, wasm.OpF64Mul: true, wasm.OpI64Xor: true, wasm.OpI32And: true,
}

func (b *binop) args(st []uint64, base int) (x, y uint64) {
	return b.x.get(st, base), b.y.get(st, base)
}
func (b *binop) fwd(st []uint64, base int, v uint64) (x, y uint64) {
	return b.x.fwd(st, base, v), b.y.fwd(st, base, v)
}

func f64add(x, y uint64) uint64  { return p64(g64(x) + g64(y)) }
func f64sub(x, y uint64) uint64  { return p64(g64(x) - g64(y)) }
func f64mul(x, y uint64) uint64  { return p64(g64(x) * g64(y)) }
func f64div(x, y uint64) uint64  { return p64(g64(x) / g64(y)) }
func i64mul(x, y uint64) uint64  { return x * y }
func i64xor(x, y uint64) uint64  { return x ^ y }
func i64shru(x, y uint64) uint64 { return x >> (y & 63) }
func i32and(x, y uint64) uint64  { return uint64(uint32(x) & uint32(y)) }
func i32eq(x, y uint64) uint64   { return bu(uint32(x) == uint32(y)) }
func i32lts(x, y uint64) uint64  { return bu(int32(x) < int32(y)) }

// i32rems is i32.rem_s by a non-zero constant (rir.HI32RemS), which
// cannot trap; Go's % already yields 0 for MinInt32 % -1.
func i32rems(x, y uint64) uint64 { return uint64(uint32(int32(x) % int32(y))) }

func i64extend32s(x uint64) uint64  { return uint64(int64(int32(x))) }
func f64convert32s(x uint64) uint64 { return p64(float64(int32(x))) }

// selop is a select second half.
type selop struct {
	d       int
	a, b, c opd
}

func selopOf(s *rir.Inst, fwd int) *selop {
	return &selop{d: s.Dst, a: operandOf(s.A, false, 0, fwd), b: operandOf(s.B, false, 0, fwd), c: operandOf(s.C, false, 0, fwd)}
}

func (s *selop) run(st []uint64, base int, v uint64) {
	r := &s.b
	if uint32(s.c.fwd(st, base, v)) != 0 {
		r = &s.a
	}
	st[base+s.d] = r.fwd(st, base, v)
}

// linop is the i32 linear half (rir.HLin): add, sub, mul and shl by a
// constant, whatever their operand forms, are one body (rir.Lin.Eval).
// As a second half its X term is the forwarded value.
type linop struct {
	d int
	rir.Lin
}

func linopOf(s *rir.Inst) *linop {
	l, _ := rir.LinOf(s)
	return &linop{s.Dst, l}
}

// linopFwd is linopOf for a second half that reads slot fwd.
func linopFwd(s *rir.Inst, fwd int) *linop {
	l := linopOf(s)
	l.Lin = l.Forward(fwd)
	return l
}

func (l *linop) run(st []uint64, base int) uint64 {
	v := uint64(l.Eval(st, base))
	st[base+l.d] = v
	return v
}
func (l *linop) fwd(st []uint64, base int, v uint64) {
	st[base+l.d] = uint64(l.EvalFwd(st, base, v))
}

// uload is an unchecked raw load, any address form.
type uload struct {
	reg
	a amode
}

func uloadOf(s *rir.Inst) *uload { return &uload{reg{s.Dst}, *amodeOf(s)} }

// uloadFwd is uloadOf for a second half whose address reads slot fwd.
func uloadFwd(s *rir.Inst, fwd int) *uload {
	l := uloadOf(s)
	l.a.Lin = l.a.Forward(fwd)
	return l
}

// cload is a checked raw load from slot+offset; the accessor is a
// call, so the closure spells it out.
type cload struct {
	reg
	a   int
	off uint64
}

func cloadOf(s *rir.Inst) *cload { return &cload{reg{s.Dst}, s.A, s.Off} }

func (l *cload) at(st []uint64, base int) uint64 { return uint64(uint32(st[base+l.a])) + l.off }

// branch is an integer compare+branch with both edges captured. For
// the less-than family (cmpLess) it goes to t when less(x, y) and to f
// otherwise; for eq/ne, to t when x and y agree under mask.
type branch struct {
	x, y       opd
	mask, flip uint64
	t, f       int
}

// brLtOf builds the less-than branch of s with its taken edge at tgt
// and its other edge at els (the targets live on the pair when s is a
// half, and a one-target branch falls through to the next pc).
func brLtOf(s *rir.Inst, fwd, tgt, els int) *branch {
	swap, neg, mask, flip, _ := cmpLess(s.CmpOp)
	b := &branch{x: operandOf(s.A, s.AImm, s.ImmA, fwd), y: operandOf(s.B, s.BImm, s.ImmB, fwd), mask: mask, flip: flip}
	if swap {
		b.x, b.y = b.y, b.x
	}
	if b.t, b.f = els, tgt; s.BrOnTrue != neg {
		b.t, b.f = tgt, els
	}
	return b
}

// brEqOf is brLtOf for eq/ne.
func brEqOf(s *rir.Inst, fwd, tgt, els int) *branch {
	b := &branch{x: operandOf(s.A, s.AImm, s.ImmA, fwd), y: operandOf(s.B, s.BImm, s.ImmB, fwd), mask: 1<<32 - 1}
	if s.CmpOp == wasm.OpI64Eq || s.CmpOp == wasm.OpI64Ne {
		b.mask = ^uint64(0)
	}
	eq := s.CmpOp == wasm.OpI32Eq || s.CmpOp == wasm.OpI64Eq
	if b.t, b.f = els, tgt; s.BrOnTrue == eq {
		b.t, b.f = tgt, els
	}
	return b
}

func (b *branch) lt(st []uint64, base int, v uint64) int {
	if (b.x.fwd(st, base, v)&b.mask)^b.flip < (b.y.fwd(st, base, v)&b.mask)^b.flip {
		return b.t
	}
	return b.f
}
func (b *branch) eq(st []uint64, base int, v uint64) int {
	if (b.x.fwd(st, base, v)^b.y.fwd(st, base, v))&b.mask == 0 {
		return b.t
	}
	return b.f
}

// emitPair compiles a fused pair at pc to its flat closure.
func emitPair(s *rir.Inst, pc int) (cop, error) {
	p0, p1 := &s.Pair[0], &s.Pair[1]
	els := pc + 1
	if s.HasElse {
		els = int(s.Else)
	}
	switch rir.HalfOf(p0)<<8 | rir.HalfOf(p1) {
	case rir.HLin<<8 | rir.HBrLt:
		a, b := linopOf(p0), brLtOf(p1, p0.Dst, int(s.Tgt), els)
		// Hot specialization: x += k into an i32 signed bound, the latch
		// of every counted loop (one dispatch in eleven over the kernels).
		if a.CX == 1 && a.CY == 0 && b.mask == 1<<32-1 && b.flip == 1<<31 && b.x.f != 0 {
			x, d, k, y, bound, t, f := a.X, a.d, a.K, b.y.s, int32(b.y.k), b.t, b.f
			if b.y.m == 0 {
				return func(inst *Instance, base, pc int) int {
					st := inst.stack
					v := uint32(st[base+x]) + k
					st[base+d] = uint64(v)
					if int32(v) < bound {
						return t
					}
					return f
				}, nil
			}
			return func(inst *Instance, base, pc int) int {
				st := inst.stack
				v := uint32(st[base+x]) + k
				st[base+d] = uint64(v)
				if int32(v) < int32(st[base+y]) {
					return t
				}
				return f
			}, nil
		}
		return func(inst *Instance, base, pc int) int {
			st := inst.stack
			return b.lt(st, base, a.run(st, base))
		}, nil
	case rir.HLoad64C<<8 | rir.HBrLt:
		a, b := cloadOf(p0), brLtOf(p1, p0.Dst, int(s.Tgt), els)
		return func(inst *Instance, base, pc int) int {
			st := inst.stack
			return b.lt(st, base, a.put(st, base, inst.base.Mem.LoadU64(a.at(st, base))))
		}, nil
	case rir.HI32And<<8 | rir.HBrEq:
		a, b := binopOf(p0), brEqOf(p1, p0.Dst, int(s.Tgt), els)
		return func(inst *Instance, base, pc int) int {
			st := inst.stack
			return b.eq(st, base, a.put(st, base, i32and(a.args(st, base))))
		}, nil
	case rir.HLin<<8 | rir.HLin:
		a, b := linopOf(p0), linopFwd(p1, p0.Dst)
		return func(inst *Instance, base, pc int) int {
			st := inst.stack
			b.fwd(st, base, a.run(st, base))
			return pc + 1
		}, nil
	case rir.HLin<<8 | rir.HLoad64:
		a, b := linopOf(p0), uloadFwd(p1, p0.Dst)
		return func(inst *Instance, base, pc int) int {
			st := inst.stack
			b.put(st, base, inst.base.Mem.LoadU64Unchecked(b.a.fwd(st, base, a.run(st, base))))
			return pc + 1
		}, nil
	case rir.HLin<<8 | rir.HLoad64C:
		a, b := linopOf(p0), cloadOf(p1)
		return func(inst *Instance, base, pc int) int {
			st := inst.stack
			b.put(st, base, inst.base.Mem.LoadU64(a.run(st, base)+b.off))
			return pc + 1
		}, nil
	case rir.HLin<<8 | rir.HLoad8C:
		a, b := linopOf(p0), cloadOf(p1)
		return func(inst *Instance, base, pc int) int {
			st := inst.stack
			b.put(st, base, uint64(inst.base.Mem.LoadU8(a.run(st, base)+b.off)))
			return pc + 1
		}, nil
	case rir.HLoad32<<8 | rir.HLin:
		a, b := uloadOf(p0), linopFwd(p1, p0.Dst)
		return func(inst *Instance, base, pc int) int {
			st := inst.stack
			b.fwd(st, base, a.put(st, base, uint64(inst.base.Mem.LoadU32Unchecked(a.a.at(st, base)))))
			return pc + 1
		}, nil
	case rir.HLoad64<<8 | rir.HF64Add:
		a, b := uloadOf(p0), binopFwd(p1, p0.Dst)
		return func(inst *Instance, base, pc int) int {
			st := inst.stack
			v := a.put(st, base, inst.base.Mem.LoadU64Unchecked(a.a.at(st, base)))
			b.put(st, base, f64add(v, b.y.fwd(st, base, v)))
			return pc + 1
		}, nil
	case rir.HLoad64<<8 | rir.HF64Mul:
		a, b := uloadOf(p0), binopFwd(p1, p0.Dst)
		return func(inst *Instance, base, pc int) int {
			st := inst.stack
			v := a.put(st, base, inst.base.Mem.LoadU64Unchecked(a.a.at(st, base)))
			b.put(st, base, f64mul(v, b.y.fwd(st, base, v)))
			return pc + 1
		}, nil
	case rir.HLoad64<<8 | rir.HF64Sub:
		a, b := uloadOf(p0), binopFwd(p1, p0.Dst)
		return func(inst *Instance, base, pc int) int {
			st := inst.stack
			v := a.put(st, base, inst.base.Mem.LoadU64Unchecked(a.a.at(st, base)))
			b.put(st, base, f64sub(b.fwd(st, base, v)))
			return pc + 1
		}, nil
	case rir.HF64Add<<8 | rir.HStore64:
		a, b := binopOf(p0), amodeOf(p1)
		return func(inst *Instance, base, pc int) int {
			st := inst.stack
			v := a.put(st, base, f64add(a.args(st, base)))
			inst.base.Mem.StoreU64Unchecked(b.at(st, base), v)
			return pc + 1
		}, nil
	case rir.HF64Sub<<8 | rir.HStore64:
		a, b := binopOf(p0), amodeOf(p1)
		return func(inst *Instance, base, pc int) int {
			st := inst.stack
			v := a.put(st, base, f64sub(a.args(st, base)))
			inst.base.Mem.StoreU64Unchecked(b.at(st, base), v)
			return pc + 1
		}, nil
	case rir.HF64Mul<<8 | rir.HStore64:
		a, b := binopOf(p0), amodeOf(p1)
		return func(inst *Instance, base, pc int) int {
			st := inst.stack
			v := a.put(st, base, f64mul(a.args(st, base)))
			inst.base.Mem.StoreU64Unchecked(b.at(st, base), v)
			return pc + 1
		}, nil
	case rir.HF64Div<<8 | rir.HStore64:
		a, b := binopOf(p0), amodeOf(p1)
		return func(inst *Instance, base, pc int) int {
			st := inst.stack
			v := a.put(st, base, f64div(a.args(st, base)))
			inst.base.Mem.StoreU64Unchecked(b.at(st, base), v)
			return pc + 1
		}, nil
	case rir.HF64Mul<<8 | rir.HF64Add:
		a, b := binopOf(p0), binopFwd(p1, p0.Dst)
		return func(inst *Instance, base, pc int) int {
			st := inst.stack
			v := a.put(st, base, f64mul(a.args(st, base)))
			b.put(st, base, f64add(v, b.y.fwd(st, base, v)))
			return pc + 1
		}, nil
	case rir.HF64Sub<<8 | rir.HF64Mul:
		a, b := binopOf(p0), binopFwd(p1, p0.Dst)
		return func(inst *Instance, base, pc int) int {
			st := inst.stack
			v := a.put(st, base, f64sub(a.args(st, base)))
			b.put(st, base, f64mul(v, b.y.fwd(st, base, v)))
			return pc + 1
		}, nil
	case rir.HF64Add<<8 | rir.HF64Mul:
		a, b := binopOf(p0), binopFwd(p1, p0.Dst)
		return func(inst *Instance, base, pc int) int {
			st := inst.stack
			v := a.put(st, base, f64add(a.args(st, base)))
			b.put(st, base, f64mul(v, b.y.fwd(st, base, v)))
			return pc + 1
		}, nil
	case rir.HF64Mul<<8 | rir.HF64Sub:
		a, b := binopOf(p0), binopFwd(p1, p0.Dst)
		return func(inst *Instance, base, pc int) int {
			st := inst.stack
			v := a.put(st, base, f64mul(a.args(st, base)))
			b.put(st, base, f64sub(b.fwd(st, base, v)))
			return pc + 1
		}, nil
	case rir.HI32Eq<<8 | rir.HI32And:
		a, b := binopOf(p0), binopFwd(p1, p0.Dst)
		return func(inst *Instance, base, pc int) int {
			st := inst.stack
			v := a.put(st, base, i32eq(a.args(st, base)))
			b.put(st, base, i32and(v, b.y.fwd(st, base, v)))
			return pc + 1
		}, nil
	case rir.HI64Mul<<8 | rir.HI64ShrU:
		a, b := binopOf(p0), binopFwd(p1, p0.Dst)
		return func(inst *Instance, base, pc int) int {
			st := inst.stack
			v := a.put(st, base, i64mul(a.args(st, base)))
			b.put(st, base, i64shru(b.fwd(st, base, v)))
			return pc + 1
		}, nil
	case rir.HI64ExtendI32S<<8 | rir.HI64Xor:
		a, x, b := &reg{p0.Dst}, p0.A, binopFwd(p1, p0.Dst)
		return func(inst *Instance, base, pc int) int {
			st := inst.stack
			v := a.put(st, base, i64extend32s(st[base+x]))
			b.put(st, base, i64xor(v, b.y.fwd(st, base, v)))
			return pc + 1
		}, nil
	case rir.HI64Xor<<8 | rir.HMove:
		a, b := binopOf(p0), p1.Dst
		return func(inst *Instance, base, pc int) int {
			st := inst.stack
			v := a.put(st, base, i64xor(a.args(st, base)))
			st[base+b] = v
			return pc + 1
		}, nil
	case rir.HI32RemS<<8 | rir.HF64ConvertI32S:
		a, b := binopOf(p0), p1.Dst
		return func(inst *Instance, base, pc int) int {
			st := inst.stack
			v := a.put(st, base, i32rems(a.args(st, base)))
			st[base+b] = f64convert32s(v)
			return pc + 1
		}, nil
	case rir.HI32LtS<<8 | rir.HSelect:
		a, b := binopOf(p0), selopOf(p1, p0.Dst)
		return func(inst *Instance, base, pc int) int {
			st := inst.stack
			v := a.put(st, base, i32lts(a.args(st, base)))
			b.run(st, base, v)
			return pc + 1
		}, nil
	}
	return nil, fmt.Errorf("no flat closure for pair %s ; %s", p0.Op, p1.Op)
}

// emitLoad compiles a memory load; the effective address is
// uint64(uint32(base operand)) + offset, computed in 64 bits.
func emitLoad(s *rir.Inst) (cop, error) {
	off := s.Off
	dst := s.Dst
	aSlot := s.A
	aImm := s.AImm
	ea := func(inst *Instance, base int) uint64 {
		if aImm {
			return off
		}
		return uint64(uint32(inst.stack[base+aSlot])) + off
	}
	switch s.Op {
	case wasm.OpI32Load, wasm.OpF32Load:
		if !aImm {
			return func(inst *Instance, base, pc int) int {
				addr := uint64(uint32(inst.stack[base+aSlot])) + off
				inst.stack[base+dst] = uint64(inst.base.Mem.LoadU32(addr))
				return pc + 1
			}, nil
		}
		return func(inst *Instance, base, pc int) int {
			inst.stack[base+dst] = uint64(inst.base.Mem.LoadU32(ea(inst, base)))
			return pc + 1
		}, nil
	case wasm.OpI64Load, wasm.OpF64Load:
		if !aImm {
			return func(inst *Instance, base, pc int) int {
				addr := uint64(uint32(inst.stack[base+aSlot])) + off
				inst.stack[base+dst] = inst.base.Mem.LoadU64(addr)
				return pc + 1
			}, nil
		}
		return func(inst *Instance, base, pc int) int {
			inst.stack[base+dst] = inst.base.Mem.LoadU64(ea(inst, base))
			return pc + 1
		}, nil
	case wasm.OpI32Load8S:
		return func(inst *Instance, base, pc int) int {
			inst.stack[base+dst] = uint64(uint32(int32(int8(inst.base.Mem.LoadU8(ea(inst, base))))))
			return pc + 1
		}, nil
	case wasm.OpI32Load8U:
		return func(inst *Instance, base, pc int) int {
			inst.stack[base+dst] = uint64(inst.base.Mem.LoadU8(ea(inst, base)))
			return pc + 1
		}, nil
	case wasm.OpI32Load16S:
		return func(inst *Instance, base, pc int) int {
			inst.stack[base+dst] = uint64(uint32(int32(int16(inst.base.Mem.LoadU16(ea(inst, base))))))
			return pc + 1
		}, nil
	case wasm.OpI32Load16U:
		return func(inst *Instance, base, pc int) int {
			inst.stack[base+dst] = uint64(inst.base.Mem.LoadU16(ea(inst, base)))
			return pc + 1
		}, nil
	case wasm.OpI64Load8S:
		return func(inst *Instance, base, pc int) int {
			inst.stack[base+dst] = uint64(int64(int8(inst.base.Mem.LoadU8(ea(inst, base)))))
			return pc + 1
		}, nil
	case wasm.OpI64Load8U:
		return func(inst *Instance, base, pc int) int {
			inst.stack[base+dst] = uint64(inst.base.Mem.LoadU8(ea(inst, base)))
			return pc + 1
		}, nil
	case wasm.OpI64Load16S:
		return func(inst *Instance, base, pc int) int {
			inst.stack[base+dst] = uint64(int64(int16(inst.base.Mem.LoadU16(ea(inst, base)))))
			return pc + 1
		}, nil
	case wasm.OpI64Load16U:
		return func(inst *Instance, base, pc int) int {
			inst.stack[base+dst] = uint64(inst.base.Mem.LoadU16(ea(inst, base)))
			return pc + 1
		}, nil
	case wasm.OpI64Load32S:
		return func(inst *Instance, base, pc int) int {
			inst.stack[base+dst] = uint64(int64(int32(inst.base.Mem.LoadU32(ea(inst, base)))))
			return pc + 1
		}, nil
	case wasm.OpI64Load32U:
		return func(inst *Instance, base, pc int) int {
			inst.stack[base+dst] = uint64(inst.base.Mem.LoadU32(ea(inst, base)))
			return pc + 1
		}, nil
	default:
		return nil, fmt.Errorf("bad load opcode")
	}
}

// amode is an unchecked access's effective address as captured data:
// the linear form of its folded address chain (rir.Inst.Addr), of its
// address slot, or of nothing (a constant address), plus the static
// offset. at evaluates it inline and branch-free, so an access with
// row-major indexing folded in is one closure with no nested call.
type amode struct {
	rir.Lin
	off uint64
}

func amodeOf(s *rir.Inst) *amode {
	l := rir.Lin{}
	switch {
	case s.Addr != nil:
		l = *s.Addr
	case !s.AImm:
		l = rir.LinSlot(s.A)
	}
	return &amode{l, s.Off}
}

func (a *amode) at(st []uint64, base int) uint64 { return uint64(a.Eval(st, base)) + a.off }

// fwd is at with the X term's frame read replaced by v (uloadFwd).
func (a *amode) fwd(st []uint64, base int, v uint64) uint64 {
	return uint64(a.EvalFwd(st, base, v)) + a.off
}

// emitLoadUnchecked compiles a load whose address range was proven
// accessible by a dominating rir.ShRangeCheck: no watermark compare, no
// slice bounds check (mem's unsafe accessors), with the plain
// slot+offset form of the hottest widths specialized like emitLoad.
func emitLoadUnchecked(s *rir.Inst) (cop, error) {
	off, dst, aSlot := s.Off, s.Dst, s.A
	plain := s.Addr == nil && !s.AImm
	am := amodeOf(s)
	switch s.Op {
	case wasm.OpI32Load, wasm.OpF32Load, wasm.OpI64Load32U:
		if plain {
			return func(inst *Instance, base, pc int) int {
				st := inst.stack
				addr := uint64(uint32(st[base+aSlot])) + off
				st[base+dst] = uint64(inst.base.Mem.LoadU32Unchecked(addr))
				return pc + 1
			}, nil
		}
		return func(inst *Instance, base, pc int) int {
			st := inst.stack
			st[base+dst] = uint64(inst.base.Mem.LoadU32Unchecked(am.at(st, base)))
			return pc + 1
		}, nil
	case wasm.OpI64Load, wasm.OpF64Load:
		if plain {
			return func(inst *Instance, base, pc int) int {
				st := inst.stack
				addr := uint64(uint32(st[base+aSlot])) + off
				st[base+dst] = inst.base.Mem.LoadU64Unchecked(addr)
				return pc + 1
			}, nil
		}
		return func(inst *Instance, base, pc int) int {
			st := inst.stack
			st[base+dst] = inst.base.Mem.LoadU64Unchecked(am.at(st, base))
			return pc + 1
		}, nil
	case wasm.OpI32Load8S:
		return func(inst *Instance, base, pc int) int {
			st := inst.stack
			st[base+dst] = uint64(uint32(int32(int8(inst.base.Mem.LoadU8Unchecked(am.at(st, base))))))
			return pc + 1
		}, nil
	case wasm.OpI32Load8U, wasm.OpI64Load8U:
		return func(inst *Instance, base, pc int) int {
			st := inst.stack
			st[base+dst] = uint64(inst.base.Mem.LoadU8Unchecked(am.at(st, base)))
			return pc + 1
		}, nil
	case wasm.OpI32Load16S:
		return func(inst *Instance, base, pc int) int {
			st := inst.stack
			st[base+dst] = uint64(uint32(int32(int16(inst.base.Mem.LoadU16Unchecked(am.at(st, base))))))
			return pc + 1
		}, nil
	case wasm.OpI32Load16U, wasm.OpI64Load16U:
		return func(inst *Instance, base, pc int) int {
			st := inst.stack
			st[base+dst] = uint64(inst.base.Mem.LoadU16Unchecked(am.at(st, base)))
			return pc + 1
		}, nil
	case wasm.OpI64Load8S:
		return func(inst *Instance, base, pc int) int {
			st := inst.stack
			st[base+dst] = uint64(int64(int8(inst.base.Mem.LoadU8Unchecked(am.at(st, base)))))
			return pc + 1
		}, nil
	case wasm.OpI64Load16S:
		return func(inst *Instance, base, pc int) int {
			st := inst.stack
			st[base+dst] = uint64(int64(int16(inst.base.Mem.LoadU16Unchecked(am.at(st, base)))))
			return pc + 1
		}, nil
	case wasm.OpI64Load32S:
		return func(inst *Instance, base, pc int) int {
			st := inst.stack
			st[base+dst] = uint64(int64(int32(inst.base.Mem.LoadU32Unchecked(am.at(st, base)))))
			return pc + 1
		}, nil
	default:
		return nil, fmt.Errorf("bad load opcode")
	}
}

// emitStoreUnchecked is emitStore through the unsafe accessors; see
// emitLoadUnchecked.
func emitStoreUnchecked(s *rir.Inst) (cop, error) {
	off, aSlot, bSlot := s.Off, s.A, s.B
	plain := s.Addr == nil && !s.AImm && !s.BImm
	am, val := amodeOf(s), operandOf(s.B, s.BImm, s.ImmB, -1)
	switch s.Op {
	case wasm.OpI32Store, wasm.OpF32Store, wasm.OpI64Store32:
		if plain {
			return func(inst *Instance, base, pc int) int {
				st := inst.stack
				addr := uint64(uint32(st[base+aSlot])) + off
				inst.base.Mem.StoreU32Unchecked(addr, uint32(st[base+bSlot]))
				return pc + 1
			}, nil
		}
		return func(inst *Instance, base, pc int) int {
			st := inst.stack
			inst.base.Mem.StoreU32Unchecked(am.at(st, base), uint32(val.get(st, base)))
			return pc + 1
		}, nil
	case wasm.OpI64Store, wasm.OpF64Store:
		if plain {
			return func(inst *Instance, base, pc int) int {
				st := inst.stack
				addr := uint64(uint32(st[base+aSlot])) + off
				inst.base.Mem.StoreU64Unchecked(addr, st[base+bSlot])
				return pc + 1
			}, nil
		}
		return func(inst *Instance, base, pc int) int {
			st := inst.stack
			inst.base.Mem.StoreU64Unchecked(am.at(st, base), val.get(st, base))
			return pc + 1
		}, nil
	case wasm.OpI32Store8, wasm.OpI64Store8:
		return func(inst *Instance, base, pc int) int {
			st := inst.stack
			inst.base.Mem.StoreU8Unchecked(am.at(st, base), byte(val.get(st, base)))
			return pc + 1
		}, nil
	case wasm.OpI32Store16, wasm.OpI64Store16:
		return func(inst *Instance, base, pc int) int {
			st := inst.stack
			inst.base.Mem.StoreU16Unchecked(am.at(st, base), uint16(val.get(st, base)))
			return pc + 1
		}, nil
	default:
		return nil, fmt.Errorf("bad store opcode")
	}
}

// emitStore compiles a memory store.
func emitStore(s *rir.Inst) (cop, error) {
	off := s.Off
	aSlot, aImm := s.A, s.AImm
	bSlot, bImm, ibv := s.B, s.BImm, s.ImmB
	ea := func(inst *Instance, base int) uint64 {
		if aImm {
			return off
		}
		return uint64(uint32(inst.stack[base+aSlot])) + off
	}
	val := func(inst *Instance, base int) uint64 {
		if bImm {
			return ibv
		}
		return inst.stack[base+bSlot]
	}
	switch s.Op {
	case wasm.OpI32Store, wasm.OpF32Store:
		if !aImm && !bImm {
			return func(inst *Instance, base, pc int) int {
				st := inst.stack
				addr := uint64(uint32(st[base+aSlot])) + off
				inst.base.Mem.StoreU32(addr, uint32(st[base+bSlot]))
				return pc + 1
			}, nil
		}
		return func(inst *Instance, base, pc int) int {
			inst.base.Mem.StoreU32(ea(inst, base), uint32(val(inst, base)))
			return pc + 1
		}, nil
	case wasm.OpI64Store, wasm.OpF64Store:
		if !aImm && !bImm {
			return func(inst *Instance, base, pc int) int {
				st := inst.stack
				addr := uint64(uint32(st[base+aSlot])) + off
				inst.base.Mem.StoreU64(addr, st[base+bSlot])
				return pc + 1
			}, nil
		}
		return func(inst *Instance, base, pc int) int {
			inst.base.Mem.StoreU64(ea(inst, base), val(inst, base))
			return pc + 1
		}, nil
	case wasm.OpI32Store8, wasm.OpI64Store8:
		return func(inst *Instance, base, pc int) int {
			inst.base.Mem.StoreU8(ea(inst, base), byte(val(inst, base)))
			return pc + 1
		}, nil
	case wasm.OpI32Store16, wasm.OpI64Store16:
		return func(inst *Instance, base, pc int) int {
			inst.base.Mem.StoreU16(ea(inst, base), uint16(val(inst, base)))
			return pc + 1
		}, nil
	case wasm.OpI64Store32:
		return func(inst *Instance, base, pc int) int {
			inst.base.Mem.StoreU32(ea(inst, base), uint32(val(inst, base)))
			return pc + 1
		}, nil
	default:
		return nil, fmt.Errorf("bad store opcode")
	}
}
