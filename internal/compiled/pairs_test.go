package compiled

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"leapsandbounds/internal/core"
	"leapsandbounds/internal/isa"
	"leapsandbounds/internal/mem"
	"leapsandbounds/internal/rir"
	"leapsandbounds/internal/wasm"
	g "leapsandbounds/internal/wasmgen"
)

// Frame layout of the template test: slots [0,4) hold small indices
// (address arithmetic stays inside the one memory page), [4,8) raw
// 64-bit patterns, [8,12) finite doubles; [12,16) are written.
const (
	pairFrame = 16
	pairPage  = 65536
)

// halfGen draws random instructions of one rir.Half.
type halfGen struct{ r *rand.Rand }

func (h halfGen) idx() int { return h.r.Intn(4) }
func (h halfGen) raw() int { return 4 + h.r.Intn(4) }
func (h halfGen) f64() int { return 8 + h.r.Intn(4) }
func (h halfGen) dst() int { return 12 + h.r.Intn(4) }
func (h halfGen) any() int { return h.r.Intn(12) }

// operands fills s.A/s.B: from pick, or an immediate from imm one time
// in three each; src >= 0 is planted in one of the two (or both).
func (h halfGen) operands(s *rir.Inst, src int, pick func() int, imm func() uint64) {
	s.A, s.B = pick(), pick()
	switch h.r.Intn(5) {
	case 0:
		s.AImm, s.ImmA = true, imm()
	case 1:
		s.BImm, s.ImmB = true, imm()
	}
	if src < 0 {
		return
	}
	switch w := h.r.Intn(5); {
	case w < 2 || s.BImm:
		s.A, s.AImm = src, false
	case w < 4 || s.AImm:
		s.B, s.BImm = src, false
	default:
		s.A, s.B = src, src
	}
}

// bin draws a binary op over operands from pick or imm (see operands).
func (h halfGen) bin(op wasm.Opcode, src int, pick func() int, imm func() uint64) rir.Inst {
	s := rir.Inst{Shape: rir.ShBin, Op: op, Dst: h.dst()}
	h.operands(&s, src, pick, imm)
	return s
}

// fimm draws a finite f64 immediate.
func (h halfGen) fimm() uint64 { return math.Float64bits(float64(h.r.Intn(200)-100) / 8) }

// lin draws an i32 linear op; small keeps its value a small index
// (what an unchecked access may be addressed by).
func (h halfGen) lin(src int, small bool) rir.Inst {
	for {
		s := rir.Inst{Shape: rir.ShBin, Dst: h.dst()}
		imm := func() uint64 { return uint64(h.r.Intn(9)) }
		if small {
			s.Op = []wasm.Opcode{wasm.OpI32Add, wasm.OpI32Mul, wasm.OpI32Shl}[h.r.Intn(3)]
			imm = func() uint64 { return uint64(h.r.Intn(4)) }
		} else {
			s.Op = []wasm.Opcode{wasm.OpI32Add, wasm.OpI32Sub, wasm.OpI32Mul, wasm.OpI32Shl}[h.r.Intn(4)]
		}
		h.operands(&s, src, h.idx, imm)
		if rir.HalfOf(&s) == rir.HLin && !(small && !s.AImm && !s.BImm && s.Op != wasm.OpI32Add) {
			return s
		}
	}
}

// access draws a load or store of op. An unchecked one gets every
// address form; a checked one slot+offset, in bounds or (trap) just
// past the end of memory. src >= 0 is the address register.
func (h halfGen) access(shape rir.Shape, op wasm.Opcode, unchecked bool, src int, trap bool) rir.Inst {
	s := rir.Inst{Shape: shape, Op: op, Dst: h.dst(), A: h.idx(), Off: uint64(8 * h.r.Intn(64)), Unchecked: unchecked, MemAcc: !unchecked}
	if src >= 0 {
		s.A = src
	}
	switch {
	case trap:
		s.Off = pairPage - 4
	case !unchecked:
	case h.r.Intn(3) == 0 && src < 0:
		s.AImm = true
	case h.r.Intn(2) == 0:
		l := rir.Lin{X: s.A, CX: uint32(1 + h.r.Intn(8)), Y: h.idx(), CY: uint32(h.r.Intn(9)), K: uint32(h.r.Intn(64))}
		if h.r.Intn(2) == 0 {
			l.X, l.Y, l.CX, l.CY = l.Y, l.X, l.CY, l.CX
		}
		s.Addr = &l
	}
	return s
}

// first draws a producer of the given half.
func (h halfGen) first(k rir.Half, trap bool) rir.Inst {
	bin := func(op wasm.Opcode, pick func() int, imm func() uint64) rir.Inst {
		return h.bin(op, -1, pick, imm)
	}
	fimm := h.fimm
	switch k {
	case rir.HLin:
		return h.lin(-1, !trap)
	case rir.HF64Add:
		return bin(wasm.OpF64Add, h.f64, fimm)
	case rir.HF64Sub:
		return bin(wasm.OpF64Sub, h.f64, fimm)
	case rir.HF64Mul:
		return bin(wasm.OpF64Mul, h.f64, fimm)
	case rir.HF64Div:
		return bin(wasm.OpF64Div, h.f64, fimm)
	case rir.HI64Mul:
		return bin(wasm.OpI64Mul, h.raw, h.r.Uint64)
	case rir.HI64Xor:
		return bin(wasm.OpI64Xor, h.raw, h.r.Uint64)
	case rir.HI32And:
		return bin(wasm.OpI32And, h.any, h.r.Uint64)
	case rir.HI32Eq:
		return bin(wasm.OpI32Eq, h.idx, func() uint64 { return uint64(h.r.Intn(4)) })
	case rir.HI32LtS:
		return bin(wasm.OpI32LtS, h.any, h.r.Uint64)
	case rir.HI32RemS:
		s := rir.Inst{Shape: rir.ShBin, Op: wasm.OpI32RemS, Dst: h.dst(), A: h.any(), BImm: true}
		s.ImmB = []uint64{3, 29, uint64(uint32(math.MaxUint32)), 1 << 31}[h.r.Intn(4)] // incl. -1 and MinInt32
		return s
	case rir.HI64ExtendI32S:
		return rir.Inst{Shape: rir.ShUn, Op: wasm.OpI64ExtendI32S, Dst: h.dst(), A: h.any()}
	case rir.HLoad64:
		return h.access(rir.ShLoad, wasm.OpF64Load, true, -1, false)
	case rir.HLoad32:
		return h.access(rir.ShLoad, wasm.OpI32Load, true, -1, false)
	case rir.HLoad64C:
		return h.access(rir.ShLoad, wasm.OpI64Load, false, -1, trap)
	}
	panic(fmt.Sprintf("no producer generator for half %d", k))
}

// second draws a consumer of src of the given half.
func (h halfGen) second(k rir.Half, src int, trap bool) rir.Inst {
	bin := func(op wasm.Opcode, pick func() int, imm func() uint64) rir.Inst {
		return h.bin(op, src, pick, imm)
	}
	fimm := h.fimm
	switch k {
	case rir.HLin:
		return h.lin(src, false)
	case rir.HF64Add:
		return bin(wasm.OpF64Add, h.f64, fimm)
	case rir.HF64Sub:
		return bin(wasm.OpF64Sub, h.f64, fimm)
	case rir.HF64Mul:
		return bin(wasm.OpF64Mul, h.f64, fimm)
	case rir.HI64Xor:
		return bin(wasm.OpI64Xor, h.raw, h.r.Uint64)
	case rir.HI64ShrU:
		return bin(wasm.OpI64ShrU, h.raw, func() uint64 { return uint64(h.r.Intn(70)) })
	case rir.HI32And:
		return bin(wasm.OpI32And, h.any, h.r.Uint64)
	case rir.HMove:
		return rir.Inst{Shape: rir.ShMove, Dst: h.dst(), A: src}
	case rir.HF64ConvertI32S:
		return rir.Inst{Shape: rir.ShUn, Op: wasm.OpF64ConvertI32S, Dst: h.dst(), A: src}
	case rir.HSelect:
		s := rir.Inst{Shape: rir.ShSelect, Dst: h.dst(), A: h.any(), B: h.any(), C: h.idx()}
		*[]*int{&s.A, &s.B, &s.C, &s.C}[h.r.Intn(4)] = src
		return s
	case rir.HLoad64:
		s := h.access(rir.ShLoad, wasm.OpI64Load, true, src, false)
		if s.Addr != nil && s.Addr.X != src && s.Addr.Y != src {
			s.Addr.X = src // the draw swapped it away with a zero coefficient
		}
		return s
	case rir.HLoad64C:
		return h.access(rir.ShLoad, wasm.OpI64Load, false, src, trap)
	case rir.HLoad8C:
		return h.access(rir.ShLoad, wasm.OpI32Load8U, false, src, trap)
	case rir.HStore64:
		s := h.access(rir.ShStore, wasm.OpF64Store, true, -1, false)
		s.B = src
		return s
	case rir.HBrLt, rir.HBrEq:
		lt := []wasm.Opcode{
			wasm.OpI32LtS, wasm.OpI32LtU, wasm.OpI32GtS, wasm.OpI32GtU, wasm.OpI32LeS, wasm.OpI32LeU, wasm.OpI32GeS, wasm.OpI32GeU,
			wasm.OpI64LtS, wasm.OpI64LtU, wasm.OpI64GtS, wasm.OpI64GtU, wasm.OpI64LeS, wasm.OpI64LeU, wasm.OpI64GeS, wasm.OpI64GeU}
		eq := []wasm.Opcode{wasm.OpI32Eq, wasm.OpI32Ne, wasm.OpI64Eq, wasm.OpI64Ne}
		s := rir.Inst{Shape: rir.ShCmpBranch, CmpOp: lt[h.r.Intn(len(lt))], BrOnTrue: h.r.Intn(2) == 0, Tgt: int32(2 + h.r.Intn(3))}
		if k == rir.HBrEq {
			s.CmpOp = eq[h.r.Intn(len(eq))]
		}
		if h.r.Intn(2) == 0 {
			s.HasElse, s.Else = true, int32(2+h.r.Intn(3))
		}
		// Operands near each other and near the sign boundaries, so
		// that both edges and both signednesses are taken.
		h.operands(&s, src, h.any, func() uint64 {
			return []uint64{0, 1, 5, 1 << 31, 1<<32 - 1, 1 << 63, math.MaxUint64}[h.r.Intn(7)]
		})
		return s
	}
	panic(fmt.Sprintf("no consumer generator for half %d", k))
}

// pairInstance is an isolate of a module with one page of memory,
// filled with finite doubles (every 8-byte word, so raw loads of any
// width are deterministic and f64 arithmetic on them meets no NaN).
func pairInstance(t *testing.T) *Instance {
	t.Helper()
	mb := g.NewModule()
	mb.Memory(1, 1)
	fn := mb.Func("run", wasm.I64)
	fn.Body(g.Return(g.I64(0)))
	mb.Export("run", fn)
	m, err := mb.Module()
	if err != nil {
		t.Fatal(err)
	}
	eng := NewWAVM()
	eng.SetCache(nil)
	cm, err := eng.CompileModule(m)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := cm.instantiate(core.Config{Profile: isa.X86_64(), Strategy: mem.Trap}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { inst.Close() })
	// What a passed range check has established for the unchecked halves.
	if _, ok := inst.base.Mem.CheckRange(0, pairPage, true); !ok {
		t.Fatal("the page is not accessible")
	}
	r := rand.New(rand.NewSource(7))
	for a := uint64(0); a < pairPage; a += 8 {
		inst.base.Mem.StoreU64(a, math.Float64bits(float64(r.Intn(4096)-2048)/16))
	}
	return inst
}

// runOps runs code from pc 0 until it leaves [0, n) and returns the pc
// it left to, or the trap it raised.
func runOps(inst *Instance, cf *cfunc, n int) (pc int, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = core.InvokeErr(r)
		}
	}()
	for pc < n {
		pc = cf.code[pc](inst, 0, pc)
	}
	return pc, nil
}

// TestFlatPairsMatchUnfused runs every flat template against the two
// closures it replaces, on seeded frames and memory: same registers
// (the first half's included — when the second half traps, too), same
// memory, same next pc, same trap kind and address. It draws pairs
// until FuseMem has fused each template a few hundred times, so the
// pass's own conditions (what consumes what) are under test with the
// closures, and a key in rir's table without a closure here fails.
func TestFlatPairsMatchUnfused(t *testing.T) {
	unfused, fused := pairInstance(t), pairInstance(t)
	h := halfGen{rand.New(rand.NewSource(42))}
	keys := rir.Pairs()
	slices.Sort(keys)
	if len(keys) < 20 {
		t.Fatalf("only %d templates", len(keys))
	}
	for _, key := range keys {
		k0, k1 := key>>8, key&0xff
		name := fmt.Sprintf("H%d;H%d", k0, k1)
		const want = 300
		formed, traps, taken := 0, 0, map[int]int{}
		for draw := 0; formed < want; draw++ {
			if draw > 50*want {
				t.Fatalf("%s: FuseMem fused %d of %d drawn pairs", name, formed, draw)
			}
			trap := draw%8 == 0 && (k0 == rir.HLoad64C || k1 == rir.HLoad64C || k1 == rir.HLoad8C)
			p0 := h.first(k0, trap)
			p1 := h.second(k1, p0.Dst, trap)
			pad := rir.Inst{Shape: rir.ShReturn, CarrySrc: -1}
			stream := []rir.Inst{p0, p1, pad, pad, pad}
			fusedIR, n := rir.FuseMem(slices.Clone(stream))
			if n != 1 {
				continue
			}
			formed++
			var cu, cf cfunc
			if err := cu.emit(stream); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if err := cf.emit(fusedIR); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for i := 0; i < pairFrame; i++ {
				v := h.r.Uint64()
				switch {
				case i < 4:
					v = uint64(h.r.Intn(64))
				case i >= 8 && i < 12:
					v = math.Float64bits(float64(h.r.Intn(4096)-2048) / 32)
				}
				unfused.stack[i], fused.stack[i] = v, v
			}
			pcU, errU := runOps(unfused, &cu, 2)
			pcF, errF := runOps(fused, &cf, 1)
			if pcU >= 2 {
				pcU-- // Compact moved everything behind the pair up by one
			}
			desc := fmt.Sprintf("%s: %s ; %s", name, p0.String(12), p1.String(12))
			if (errU == nil) != (errF == nil) || (errU != nil && errU.Error() != errF.Error()) {
				t.Fatalf("%s\n unfused: %v\n   fused: %v", desc, errU, errF)
			}
			if errU == nil && pcU != pcF {
				t.Fatalf("%s: next pc %d unfused, %d fused", desc, pcU, pcF)
			}
			if !slices.Equal(unfused.stack[:pairFrame], fused.stack[:pairFrame]) {
				t.Fatalf("%s: frames differ\n unfused: %x\n   fused: %x", desc, unfused.stack[:pairFrame], fused.stack[:pairFrame])
			}
			if errU != nil {
				traps++
			}
			taken[pcF]++
		}
		if !bytes.Equal(unfused.base.Mem.Bytes(0, pairPage, false), fused.base.Mem.Bytes(0, pairPage, false)) {
			t.Fatalf("%s: memories differ", name)
		}
		switch k1 {
		case rir.HLoad64C, rir.HLoad8C:
			if traps == 0 {
				t.Errorf("%s: no case trapped in the second half", name)
			}
		case rir.HBrLt, rir.HBrEq:
			if len(taken) < 3 {
				t.Errorf("%s: branches left to %v only", name, taken)
			}
		}
	}
}
