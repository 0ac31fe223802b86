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

// emit compiles the slot IR to closures plus the parallel class,
// memory-access and check-elided arrays used by cycle accounting and
// the sampling profiler.
func (cf *cfunc) emit(ir []rir.Inst) error {
	cf.code = make([]cop, len(ir))
	cf.classes = make([]isa.OpClass, len(ir))
	cf.memAcc = make([]bool, len(ir))
	cf.elided = make([]bool, len(ir))
	for i := range ir {
		c, err := emitOne(&ir[i])
		if err != nil {
			return fmt.Errorf("compiled: op %d (%s): %w", i, ir[i].Op, err)
		}
		cf.code[i] = c
		cf.classes[i] = ir[i].Class
		cf.memAcc[i] = ir[i].MemAcc
		cf.elided[i] = ir[i].MemAcc && ir[i].Unchecked
	}
	return nil
}

func emitOne(s *rir.Inst) (cop, error) {
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
		return emitCmpBranch(s)
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
			fi := inst.resolveIndirect(uint32(inst.stack[base+idxSlot]), typeIdx)
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
	case rir.ShLoadOp:
		// Superinstruction: the hot pairs (unchecked raw-width load
		// feeding a common ALU op) compile to a single flat closure —
		// no inner dispatch at all — which is the fusion's
		// dispatch-reduction claim. The intermediate register write
		// still happens, so the fused form is observationally
		// identical to the unfused pair, and a trapping load unwinds
		// before the ALU runs, exactly as unfused. Pairs outside the
		// flat set run as the load closure plus the ALU applied
		// directly on the operand stack.
		if f := emitLoadOpFlat(s); f != nil {
			return f, nil
		}
		load, err := emitOne(&s.Pair[0])
		if err != nil {
			return nil, err
		}
		alu, err := emitALUApply(&s.Pair[1])
		if err != nil {
			return nil, err
		}
		return func(inst *Instance, base, pc int) int {
			load(inst, base, pc)
			alu(inst.stack, base)
			return pc + 1
		}, nil
	case rir.ShOpStore:
		// Mirror of ShLoadOp: hot pairs flatten to one closure; the
		// rest run the ALU inline and then the store closure. The
		// ALU's register write precedes the store, so a trapping
		// store leaves the same state as the unfused pair.
		if f := emitOpStoreFlat(s); f != nil {
			return f, nil
		}
		alu, err := emitALUApply(&s.Pair[0])
		if err != nil {
			return nil, err
		}
		store, err := emitOne(&s.Pair[1])
		if err != nil {
			return nil, err
		}
		return func(inst *Instance, base, pc int) int {
			alu(inst.stack, base)
			return store(inst, base, pc)
		}, nil
	default:
		return nil, fmt.Errorf("unknown shape %d", s.Shape)
	}
}

// flatALUOp reports whether op is in the flat-fusion ALU set: pure
// (never traps), and cheap enough to spell out inline in the fused
// closure bodies. Integer division is excluded (it traps), as are the
// long-tail ops — those pairs fall back to the composed form.
func flatALUOp(op wasm.Opcode) bool {
	switch op {
	case wasm.OpF64Add, wasm.OpF64Sub, wasm.OpF64Mul, wasm.OpF64Div,
		wasm.OpI32Add, wasm.OpI32Sub, wasm.OpI32Mul,
		wasm.OpI32And, wasm.OpI32Or, wasm.OpI32Xor,
		wasm.OpI64Add, wasm.OpI64Sub, wasm.OpI64Mul:
		return true
	}
	return false
}

// emitLoadF64OpFlat compiles the dominant fused shape — a wide
// unchecked load feeding an f64 binop — to a per-(op, address-form)
// specialized closure: the arithmetic is spelled out per opcode and
// the address form is resolved at emit time, so the executed body is
// as straight-line as the unfused specialized emitters. That parity
// is load-bearing: a shared ALU helper is a real call and a switch on
// a captured opcode is a compare chain, and either one per executed
// superinstruction cancels the dispatch saving fusion exists for.
// When an ALU operand is the loaded register the value is used
// directly instead of re-read from the frame, keeping the
// load→arith critical path out of the store-forwarding stall.
// Returns nil for shapes outside the hot set.
func emitLoadF64OpFlat(s *rir.Inst) cop {
	ld, op := &s.Pair[0], &s.Pair[1]
	switch ld.Op {
	case wasm.OpI64Load, wasm.OpF64Load:
	default:
		return nil
	}
	fusedA := fusedAddrFn(ld)
	if fusedA == nil && ld.AImm {
		return nil // constant address: not a loop shape, generic form is fine
	}
	off, aS := ld.Off, ld.A
	dstL := ld.Dst
	dstA := op.Dst
	xS, xImm, xK := op.A, op.AImm, op.ImmA
	yS, yImm, yK := op.B, op.BImm, op.ImmB
	xLd := !xImm && xS == dstL
	yLd := !yImm && yS == dstL
	if fusedA != nil {
		switch op.Op {
		case wasm.OpF64Add:
			return func(inst *Instance, base, pc int) int {
				st := inst.stack
				u := inst.base.Mem.LoadU64Unchecked(fusedA(st, base))
				st[base+dstL] = u
				x, y := xK, yK
				if xLd {
					x = u
				} else if !xImm {
					x = st[base+xS]
				}
				if yLd {
					y = u
				} else if !yImm {
					y = st[base+yS]
				}
				st[base+dstA] = p64(g64(x) + g64(y))
				return pc + 1
			}
		case wasm.OpF64Sub:
			return func(inst *Instance, base, pc int) int {
				st := inst.stack
				u := inst.base.Mem.LoadU64Unchecked(fusedA(st, base))
				st[base+dstL] = u
				x, y := xK, yK
				if xLd {
					x = u
				} else if !xImm {
					x = st[base+xS]
				}
				if yLd {
					y = u
				} else if !yImm {
					y = st[base+yS]
				}
				st[base+dstA] = p64(g64(x) - g64(y))
				return pc + 1
			}
		case wasm.OpF64Mul:
			return func(inst *Instance, base, pc int) int {
				st := inst.stack
				u := inst.base.Mem.LoadU64Unchecked(fusedA(st, base))
				st[base+dstL] = u
				x, y := xK, yK
				if xLd {
					x = u
				} else if !xImm {
					x = st[base+xS]
				}
				if yLd {
					y = u
				} else if !yImm {
					y = st[base+yS]
				}
				st[base+dstA] = p64(g64(x) * g64(y))
				return pc + 1
			}
		case wasm.OpF64Div:
			return func(inst *Instance, base, pc int) int {
				st := inst.stack
				u := inst.base.Mem.LoadU64Unchecked(fusedA(st, base))
				st[base+dstL] = u
				x, y := xK, yK
				if xLd {
					x = u
				} else if !xImm {
					x = st[base+xS]
				}
				if yLd {
					y = u
				} else if !yImm {
					y = st[base+yS]
				}
				st[base+dstA] = p64(g64(x) / g64(y))
				return pc + 1
			}
		}
		return nil
	}
	switch op.Op {
	case wasm.OpF64Add:
		return func(inst *Instance, base, pc int) int {
			st := inst.stack
			u := inst.base.Mem.LoadU64Unchecked(uint64(uint32(st[base+aS])) + off)
			st[base+dstL] = u
			x, y := xK, yK
			if xLd {
				x = u
			} else if !xImm {
				x = st[base+xS]
			}
			if yLd {
				y = u
			} else if !yImm {
				y = st[base+yS]
			}
			st[base+dstA] = p64(g64(x) + g64(y))
			return pc + 1
		}
	case wasm.OpF64Sub:
		return func(inst *Instance, base, pc int) int {
			st := inst.stack
			u := inst.base.Mem.LoadU64Unchecked(uint64(uint32(st[base+aS])) + off)
			st[base+dstL] = u
			x, y := xK, yK
			if xLd {
				x = u
			} else if !xImm {
				x = st[base+xS]
			}
			if yLd {
				y = u
			} else if !yImm {
				y = st[base+yS]
			}
			st[base+dstA] = p64(g64(x) - g64(y))
			return pc + 1
		}
	case wasm.OpF64Mul:
		return func(inst *Instance, base, pc int) int {
			st := inst.stack
			u := inst.base.Mem.LoadU64Unchecked(uint64(uint32(st[base+aS])) + off)
			st[base+dstL] = u
			x, y := xK, yK
			if xLd {
				x = u
			} else if !xImm {
				x = st[base+xS]
			}
			if yLd {
				y = u
			} else if !yImm {
				y = st[base+yS]
			}
			st[base+dstA] = p64(g64(x) * g64(y))
			return pc + 1
		}
	case wasm.OpF64Div:
		return func(inst *Instance, base, pc int) int {
			st := inst.stack
			u := inst.base.Mem.LoadU64Unchecked(uint64(uint32(st[base+aS])) + off)
			st[base+dstL] = u
			x, y := xK, yK
			if xLd {
				x = u
			} else if !xImm {
				x = st[base+xS]
			}
			if yLd {
				y = u
			} else if !yImm {
				y = st[base+yS]
			}
			st[base+dstA] = p64(g64(x) / g64(y))
			return pc + 1
		}
	}
	return nil
}

// emitLoadOpFlat compiles a load+op superinstruction to one flat
// closure when the pair is in the hot set: an unchecked raw 32- or
// 64-bit load (any address form, including elision-fused address
// chains) feeding a flatALUOp. Returns nil otherwise — the caller
// falls back to the composed form. The loaded value is written to its
// register before the ALU reads operands, so operand fetch needs no
// special case for the loaded slot and later readers of the register
// see it, exactly as unfused.
func emitLoadOpFlat(s *rir.Inst) cop {
	ld, op := &s.Pair[0], &s.Pair[1]
	if !ld.Unchecked || op.Shape != rir.ShBin || !flatALUOp(op.Op) {
		return nil
	}
	if f := emitLoadF64OpFlat(s); f != nil {
		return f
	}
	var wide bool
	switch ld.Op {
	case wasm.OpI64Load, wasm.OpF64Load:
		wide = true
	case wasm.OpI32Load, wasm.OpF32Load:
	default:
		return nil
	}
	fusedA := fusedAddrFn(ld)
	off, aS, aImm := ld.Off, ld.A, ld.AImm
	dstL := ld.Dst
	aluOp, dstA := op.Op, op.Dst
	xS, xImm, xK := op.A, op.AImm, op.ImmA
	yS, yImm, yK := op.B, op.BImm, op.ImmB
	return func(inst *Instance, base, pc int) int {
		st := inst.stack
		var addr uint64
		switch {
		case fusedA != nil:
			addr = fusedA(st, base)
		case aImm:
			addr = off
		default:
			addr = uint64(uint32(st[base+aS])) + off
		}
		var v uint64
		if wide {
			v = inst.base.Mem.LoadU64Unchecked(addr)
		} else {
			v = uint64(inst.base.Mem.LoadU32Unchecked(addr))
		}
		st[base+dstL] = v
		x, y := xK, yK
		if !xImm {
			x = st[base+xS]
		}
		if !yImm {
			y = st[base+yS]
		}
		// aluOp is constant per closure: the switch is a perfectly
		// predicted branch, where a shared helper would be a real call
		// (the op set exceeds the inliner's budget).
		var r uint64
		switch aluOp {
		case wasm.OpF64Add:
			r = p64(g64(x) + g64(y))
		case wasm.OpF64Sub:
			r = p64(g64(x) - g64(y))
		case wasm.OpF64Mul:
			r = p64(g64(x) * g64(y))
		case wasm.OpF64Div:
			r = p64(g64(x) / g64(y))
		case wasm.OpI32Add:
			r = uint64(uint32(x) + uint32(y))
		case wasm.OpI32Sub:
			r = uint64(uint32(x) - uint32(y))
		case wasm.OpI32Mul:
			r = uint64(uint32(x) * uint32(y))
		case wasm.OpI32And:
			r = uint64(uint32(x) & uint32(y))
		case wasm.OpI32Or:
			r = uint64(uint32(x) | uint32(y))
		case wasm.OpI32Xor:
			r = uint64(uint32(x) ^ uint32(y))
		case wasm.OpI64Add:
			r = x + y
		case wasm.OpI64Sub:
			r = x - y
		default: // wasm.OpI64Mul
			r = x * y
		}
		st[base+dstA] = r
		return pc + 1
	}
}

// emitOpStoreF64Flat compiles the dominant fused store shape — an f64
// binop whose result register is the stored value, feeding a wide
// unchecked store — to a per-(op, address-form) specialized closure.
// Same rationale as emitLoadF64OpFlat: the executed body must be as
// straight-line as the unfused specialized emitters for fusion's
// dispatch saving to survive, and the result is stored from the
// register the ALU just computed, not re-read from the frame. The
// address is computed after the result register write, so an address
// register aliasing the ALU destination sees the new value, exactly
// as unfused. Returns nil for shapes outside the hot set.
func emitOpStoreF64Flat(s *rir.Inst) cop {
	op, st2 := &s.Pair[0], &s.Pair[1]
	switch st2.Op {
	case wasm.OpI64Store, wasm.OpF64Store:
	default:
		return nil
	}
	if st2.B != op.Dst {
		return nil // stored value is not the ALU result
	}
	fusedA := fusedAddrFn(st2)
	if fusedA == nil && st2.AImm {
		return nil
	}
	off, aS := st2.Off, st2.A
	dstA := op.Dst
	xS, xImm, xK := op.A, op.AImm, op.ImmA
	yS, yImm, yK := op.B, op.BImm, op.ImmB
	if fusedA != nil {
		switch op.Op {
		case wasm.OpF64Add:
			return func(inst *Instance, base, pc int) int {
				st := inst.stack
				x, y := xK, yK
				if !xImm {
					x = st[base+xS]
				}
				if !yImm {
					y = st[base+yS]
				}
				v := p64(g64(x) + g64(y))
				st[base+dstA] = v
				inst.base.Mem.StoreU64Unchecked(fusedA(st, base), v)
				return pc + 1
			}
		case wasm.OpF64Sub:
			return func(inst *Instance, base, pc int) int {
				st := inst.stack
				x, y := xK, yK
				if !xImm {
					x = st[base+xS]
				}
				if !yImm {
					y = st[base+yS]
				}
				v := p64(g64(x) - g64(y))
				st[base+dstA] = v
				inst.base.Mem.StoreU64Unchecked(fusedA(st, base), v)
				return pc + 1
			}
		case wasm.OpF64Mul:
			return func(inst *Instance, base, pc int) int {
				st := inst.stack
				x, y := xK, yK
				if !xImm {
					x = st[base+xS]
				}
				if !yImm {
					y = st[base+yS]
				}
				v := p64(g64(x) * g64(y))
				st[base+dstA] = v
				inst.base.Mem.StoreU64Unchecked(fusedA(st, base), v)
				return pc + 1
			}
		case wasm.OpF64Div:
			return func(inst *Instance, base, pc int) int {
				st := inst.stack
				x, y := xK, yK
				if !xImm {
					x = st[base+xS]
				}
				if !yImm {
					y = st[base+yS]
				}
				v := p64(g64(x) / g64(y))
				st[base+dstA] = v
				inst.base.Mem.StoreU64Unchecked(fusedA(st, base), v)
				return pc + 1
			}
		}
		return nil
	}
	switch op.Op {
	case wasm.OpF64Add:
		return func(inst *Instance, base, pc int) int {
			st := inst.stack
			x, y := xK, yK
			if !xImm {
				x = st[base+xS]
			}
			if !yImm {
				y = st[base+yS]
			}
			v := p64(g64(x) + g64(y))
			st[base+dstA] = v
			inst.base.Mem.StoreU64Unchecked(uint64(uint32(st[base+aS]))+off, v)
			return pc + 1
		}
	case wasm.OpF64Sub:
		return func(inst *Instance, base, pc int) int {
			st := inst.stack
			x, y := xK, yK
			if !xImm {
				x = st[base+xS]
			}
			if !yImm {
				y = st[base+yS]
			}
			v := p64(g64(x) - g64(y))
			st[base+dstA] = v
			inst.base.Mem.StoreU64Unchecked(uint64(uint32(st[base+aS]))+off, v)
			return pc + 1
		}
	case wasm.OpF64Mul:
		return func(inst *Instance, base, pc int) int {
			st := inst.stack
			x, y := xK, yK
			if !xImm {
				x = st[base+xS]
			}
			if !yImm {
				y = st[base+yS]
			}
			v := p64(g64(x) * g64(y))
			st[base+dstA] = v
			inst.base.Mem.StoreU64Unchecked(uint64(uint32(st[base+aS]))+off, v)
			return pc + 1
		}
	case wasm.OpF64Div:
		return func(inst *Instance, base, pc int) int {
			st := inst.stack
			x, y := xK, yK
			if !xImm {
				x = st[base+xS]
			}
			if !yImm {
				y = st[base+yS]
			}
			v := p64(g64(x) / g64(y))
			st[base+dstA] = v
			inst.base.Mem.StoreU64Unchecked(uint64(uint32(st[base+aS]))+off, v)
			return pc + 1
		}
	}
	return nil
}

// emitOpStoreFlat compiles an op+store superinstruction to one flat
// closure when the pair is in the hot set: a flatALUOp whose result
// feeds an unchecked raw 32- or 64-bit store (any address form). The
// ALU's register write precedes the store, mirroring the unfused
// order.
func emitOpStoreFlat(s *rir.Inst) cop {
	op, st2 := &s.Pair[0], &s.Pair[1]
	if !st2.Unchecked || op.Shape != rir.ShBin || !flatALUOp(op.Op) || st2.BImm {
		return nil
	}
	if f := emitOpStoreF64Flat(s); f != nil {
		return f
	}
	var wide bool
	switch st2.Op {
	case wasm.OpI64Store, wasm.OpF64Store:
		wide = true
	case wasm.OpI32Store, wasm.OpF32Store:
	default:
		return nil
	}
	fusedA := fusedAddrFn(st2)
	off, aS, aImm := st2.Off, st2.A, st2.AImm
	aluOp, dstA := op.Op, op.Dst
	xS, xImm, xK := op.A, op.AImm, op.ImmA
	yS, yImm, yK := op.B, op.BImm, op.ImmB
	return func(inst *Instance, base, pc int) int {
		st := inst.stack
		x, y := xK, yK
		if !xImm {
			x = st[base+xS]
		}
		if !yImm {
			y = st[base+yS]
		}
		// See emitLoadOpFlat: aluOp is constant per closure, so the
		// inline switch beats a non-inlinable shared helper.
		var v uint64
		switch aluOp {
		case wasm.OpF64Add:
			v = p64(g64(x) + g64(y))
		case wasm.OpF64Sub:
			v = p64(g64(x) - g64(y))
		case wasm.OpF64Mul:
			v = p64(g64(x) * g64(y))
		case wasm.OpF64Div:
			v = p64(g64(x) / g64(y))
		case wasm.OpI32Add:
			v = uint64(uint32(x) + uint32(y))
		case wasm.OpI32Sub:
			v = uint64(uint32(x) - uint32(y))
		case wasm.OpI32Mul:
			v = uint64(uint32(x) * uint32(y))
		case wasm.OpI32And:
			v = uint64(uint32(x) & uint32(y))
		case wasm.OpI32Or:
			v = uint64(uint32(x) | uint32(y))
		case wasm.OpI32Xor:
			v = uint64(uint32(x) ^ uint32(y))
		case wasm.OpI64Add:
			v = x + y
		case wasm.OpI64Sub:
			v = x - y
		default: // wasm.OpI64Mul
			v = x * y
		}
		st[base+dstA] = v
		var addr uint64
		switch {
		case fusedA != nil:
			addr = fusedA(st, base)
		case aImm:
			addr = off
		default:
			addr = uint64(uint32(st[base+aS])) + off
		}
		if wide {
			inst.base.Mem.StoreU64Unchecked(addr, v)
		} else {
			inst.base.Mem.StoreU32Unchecked(addr, uint32(v))
		}
		return pc + 1
	}
}

// emitALUApply compiles the ALU half of a fused memory
// superinstruction to a direct stack transform (no dispatch closure),
// specializing the same hot opcodes emitBin does so fusing never
// de-specializes an op.
func emitALUApply(s *rir.Inst) (func(st []uint64, base int), error) {
	dst := s.Dst
	if s.Shape == rir.ShUn {
		fn := rir.UnOps[s.Op]
		if fn == nil {
			return nil, fmt.Errorf("no unary implementation")
		}
		src := s.A
		return func(st []uint64, base int) {
			st[base+dst] = fn(st[base+src])
		}, nil
	}
	fn := rir.BinOps[s.Op]
	if fn == nil {
		return nil, fmt.Errorf("no binary implementation")
	}
	switch {
	case s.AImm && s.BImm:
		ia, ib := s.ImmA, s.ImmB
		return func(st []uint64, base int) {
			st[base+dst] = fn(ia, ib)
		}, nil
	case s.BImm:
		a, ib := s.A, s.ImmB
		switch s.Op {
		case wasm.OpI32Add:
			k := uint32(ib)
			return func(st []uint64, base int) {
				st[base+dst] = uint64(uint32(st[base+a]) + k)
			}, nil
		case wasm.OpI32Mul:
			k := uint32(ib)
			return func(st []uint64, base int) {
				st[base+dst] = uint64(uint32(st[base+a]) * k)
			}, nil
		case wasm.OpI32Shl:
			k := uint32(ib) & 31
			return func(st []uint64, base int) {
				st[base+dst] = uint64(uint32(st[base+a]) << k)
			}, nil
		}
		return func(st []uint64, base int) {
			st[base+dst] = fn(st[base+a], ib)
		}, nil
	case s.AImm:
		ia, b := s.ImmA, s.B
		return func(st []uint64, base int) {
			st[base+dst] = fn(ia, st[base+b])
		}, nil
	default:
		a, b := s.A, s.B
		switch s.Op {
		case wasm.OpI32Add:
			return func(st []uint64, base int) {
				st[base+dst] = uint64(uint32(st[base+a]) + uint32(st[base+b]))
			}, nil
		case wasm.OpI32Sub:
			return func(st []uint64, base int) {
				st[base+dst] = uint64(uint32(st[base+a]) - uint32(st[base+b]))
			}, nil
		case wasm.OpI32Mul:
			return func(st []uint64, base int) {
				st[base+dst] = uint64(uint32(st[base+a]) * uint32(st[base+b]))
			}, nil
		case wasm.OpF64Add:
			return func(st []uint64, base int) {
				st[base+dst] = p64(g64(st[base+a]) + g64(st[base+b]))
			}, nil
		case wasm.OpF64Sub:
			return func(st []uint64, base int) {
				st[base+dst] = p64(g64(st[base+a]) - g64(st[base+b]))
			}, nil
		case wasm.OpF64Mul:
			return func(st []uint64, base int) {
				st[base+dst] = p64(g64(st[base+a]) * g64(st[base+b]))
			}, nil
		case wasm.OpF64Div:
			return func(st []uint64, base int) {
				st[base+dst] = p64(g64(st[base+a]) / g64(st[base+b]))
			}, nil
		}
		return func(st []uint64, base int) {
			st[base+dst] = fn(st[base+a], st[base+b])
		}, nil
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

// emitCmpBranch compiles a fused compare+branch.
func emitCmpBranch(s *rir.Inst) (cop, error) {
	fn := rir.BinOps[s.CmpOp]
	if fn == nil {
		return nil, fmt.Errorf("no compare implementation for %s", s.CmpOp)
	}
	tgt := int(s.Tgt)
	onTrue := s.BrOnTrue
	// Hot specialization: i32 signed compare against a slot (loop
	// bounds), both orders.
	if s.CmpOp == wasm.OpI32GeS && !s.AImm && !s.BImm && !onTrue {
		a, b := s.A, s.B
		return func(inst *Instance, base, pc int) int {
			st := inst.stack
			if int32(st[base+a]) >= int32(st[base+b]) {
				return pc + 1
			}
			return tgt
		}, nil
	}
	if s.CmpOp == wasm.OpI32GeS && !s.AImm && !s.BImm && onTrue {
		a, b := s.A, s.B
		return func(inst *Instance, base, pc int) int {
			st := inst.stack
			if int32(st[base+a]) >= int32(st[base+b]) {
				return tgt
			}
			return pc + 1
		}, nil
	}
	load := func(s *rir.Inst) (func(inst *Instance, base int) (uint64, uint64), error) {
		switch {
		case s.AImm && s.BImm:
			ia, ib := s.ImmA, s.ImmB
			return func(inst *Instance, base int) (uint64, uint64) { return ia, ib }, nil
		case s.AImm:
			ia, b := s.ImmA, s.B
			return func(inst *Instance, base int) (uint64, uint64) {
				return ia, inst.stack[base+b]
			}, nil
		case s.BImm:
			a, ib := s.A, s.ImmB
			return func(inst *Instance, base int) (uint64, uint64) {
				return inst.stack[base+a], ib
			}, nil
		default:
			a, b := s.A, s.B
			return func(inst *Instance, base int) (uint64, uint64) {
				return inst.stack[base+a], inst.stack[base+b]
			}, nil
		}
	}
	ld, err := load(s)
	if err != nil {
		return nil, err
	}
	if onTrue {
		return func(inst *Instance, base, pc int) int {
			x, y := ld(inst, base)
			if fn(x, y) != 0 {
				return tgt
			}
			return pc + 1
		}, nil
	}
	return func(inst *Instance, base, pc int) int {
		x, y := ld(inst, base)
		if fn(x, y) == 0 {
			return tgt
		}
		return pc + 1
	}, nil
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

// emitLoadUnchecked compiles a load whose address range was proven
// accessible by a dominating rir.ShRangeCheck: no watermark compare, no
// slice bounds check (mem's unsafe accessors), with the hottest
// widths specialized like emitLoad.
func emitLoadUnchecked(s *rir.Inst) (cop, error) {
	off := s.Off
	dst := s.Dst
	aSlot := s.A
	aImm := s.AImm
	fused := fusedAddrFn(s)
	ea := func(inst *Instance, base int) uint64 {
		if fused != nil {
			return fused(inst.stack, base)
		}
		if aImm {
			return off
		}
		return uint64(uint32(inst.stack[base+aSlot])) + off
	}
	switch s.Op {
	case wasm.OpI32Load, wasm.OpF32Load:
		if fused != nil {
			return func(inst *Instance, base, pc int) int {
				st := inst.stack
				st[base+dst] = uint64(inst.base.Mem.LoadU32Unchecked(fused(st, base)))
				return pc + 1
			}, nil
		}
		if !aImm {
			return func(inst *Instance, base, pc int) int {
				st := inst.stack
				addr := uint64(uint32(st[base+aSlot])) + off
				st[base+dst] = uint64(inst.base.Mem.LoadU32Unchecked(addr))
				return pc + 1
			}, nil
		}
		return func(inst *Instance, base, pc int) int {
			inst.stack[base+dst] = uint64(inst.base.Mem.LoadU32Unchecked(ea(inst, base)))
			return pc + 1
		}, nil
	case wasm.OpI64Load, wasm.OpF64Load:
		if fused != nil {
			return func(inst *Instance, base, pc int) int {
				st := inst.stack
				st[base+dst] = inst.base.Mem.LoadU64Unchecked(fused(st, base))
				return pc + 1
			}, nil
		}
		if !aImm {
			return func(inst *Instance, base, pc int) int {
				st := inst.stack
				addr := uint64(uint32(st[base+aSlot])) + off
				st[base+dst] = inst.base.Mem.LoadU64Unchecked(addr)
				return pc + 1
			}, nil
		}
		return func(inst *Instance, base, pc int) int {
			inst.stack[base+dst] = inst.base.Mem.LoadU64Unchecked(ea(inst, base))
			return pc + 1
		}, nil
	case wasm.OpI32Load8S:
		return func(inst *Instance, base, pc int) int {
			inst.stack[base+dst] = uint64(uint32(int32(int8(inst.base.Mem.LoadU8Unchecked(ea(inst, base))))))
			return pc + 1
		}, nil
	case wasm.OpI32Load8U:
		return func(inst *Instance, base, pc int) int {
			inst.stack[base+dst] = uint64(inst.base.Mem.LoadU8Unchecked(ea(inst, base)))
			return pc + 1
		}, nil
	case wasm.OpI32Load16S:
		return func(inst *Instance, base, pc int) int {
			inst.stack[base+dst] = uint64(uint32(int32(int16(inst.base.Mem.LoadU16Unchecked(ea(inst, base))))))
			return pc + 1
		}, nil
	case wasm.OpI32Load16U:
		return func(inst *Instance, base, pc int) int {
			inst.stack[base+dst] = uint64(inst.base.Mem.LoadU16Unchecked(ea(inst, base)))
			return pc + 1
		}, nil
	case wasm.OpI64Load8S:
		return func(inst *Instance, base, pc int) int {
			inst.stack[base+dst] = uint64(int64(int8(inst.base.Mem.LoadU8Unchecked(ea(inst, base)))))
			return pc + 1
		}, nil
	case wasm.OpI64Load8U:
		return func(inst *Instance, base, pc int) int {
			inst.stack[base+dst] = uint64(inst.base.Mem.LoadU8Unchecked(ea(inst, base)))
			return pc + 1
		}, nil
	case wasm.OpI64Load16S:
		return func(inst *Instance, base, pc int) int {
			inst.stack[base+dst] = uint64(int64(int16(inst.base.Mem.LoadU16Unchecked(ea(inst, base)))))
			return pc + 1
		}, nil
	case wasm.OpI64Load16U:
		return func(inst *Instance, base, pc int) int {
			inst.stack[base+dst] = uint64(inst.base.Mem.LoadU16Unchecked(ea(inst, base)))
			return pc + 1
		}, nil
	case wasm.OpI64Load32S:
		return func(inst *Instance, base, pc int) int {
			inst.stack[base+dst] = uint64(int64(int32(inst.base.Mem.LoadU32Unchecked(ea(inst, base)))))
			return pc + 1
		}, nil
	case wasm.OpI64Load32U:
		return func(inst *Instance, base, pc int) int {
			inst.stack[base+dst] = uint64(inst.base.Mem.LoadU32Unchecked(ea(inst, base)))
			return pc + 1
		}, nil
	default:
		return nil, fmt.Errorf("bad load opcode")
	}
}

// emitStoreUnchecked is emitStore through the unsafe accessors; see
// emitLoadUnchecked.
func emitStoreUnchecked(s *rir.Inst) (cop, error) {
	off := s.Off
	aSlot, aImm := s.A, s.AImm
	bSlot, bImm, ibv := s.B, s.BImm, s.ImmB
	fused := fusedAddrFn(s)
	ea := func(inst *Instance, base int) uint64 {
		if fused != nil {
			return fused(inst.stack, base)
		}
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
		if fused != nil && !bImm {
			return func(inst *Instance, base, pc int) int {
				st := inst.stack
				inst.base.Mem.StoreU32Unchecked(fused(st, base), uint32(st[base+bSlot]))
				return pc + 1
			}, nil
		}
		if !aImm && !bImm {
			return func(inst *Instance, base, pc int) int {
				st := inst.stack
				addr := uint64(uint32(st[base+aSlot])) + off
				inst.base.Mem.StoreU32Unchecked(addr, uint32(st[base+bSlot]))
				return pc + 1
			}, nil
		}
		return func(inst *Instance, base, pc int) int {
			inst.base.Mem.StoreU32Unchecked(ea(inst, base), uint32(val(inst, base)))
			return pc + 1
		}, nil
	case wasm.OpI64Store, wasm.OpF64Store:
		if fused != nil && !bImm {
			return func(inst *Instance, base, pc int) int {
				st := inst.stack
				inst.base.Mem.StoreU64Unchecked(fused(st, base), st[base+bSlot])
				return pc + 1
			}, nil
		}
		if !aImm && !bImm {
			return func(inst *Instance, base, pc int) int {
				st := inst.stack
				addr := uint64(uint32(st[base+aSlot])) + off
				inst.base.Mem.StoreU64Unchecked(addr, st[base+bSlot])
				return pc + 1
			}, nil
		}
		return func(inst *Instance, base, pc int) int {
			inst.base.Mem.StoreU64Unchecked(ea(inst, base), val(inst, base))
			return pc + 1
		}, nil
	case wasm.OpI32Store8, wasm.OpI64Store8:
		return func(inst *Instance, base, pc int) int {
			inst.base.Mem.StoreU8Unchecked(ea(inst, base), byte(val(inst, base)))
			return pc + 1
		}, nil
	case wasm.OpI32Store16, wasm.OpI64Store16:
		return func(inst *Instance, base, pc int) int {
			inst.base.Mem.StoreU16Unchecked(ea(inst, base), uint16(val(inst, base)))
			return pc + 1
		}, nil
	case wasm.OpI64Store32:
		return func(inst *Instance, base, pc int) int {
			inst.base.Mem.StoreU32Unchecked(ea(inst, base), uint32(val(inst, base)))
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
