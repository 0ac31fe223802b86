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

// Frame layout of the pair test: slots [0,4) hold small indices
// (address arithmetic stays inside the one memory page), [4,8) raw
// 64-bit patterns, [8,12) finite doubles; [12,16) are written. Slot
// pairFrame+k holds k, the marker the return at pc k carries, for k in
// [2, pairPads).
const (
	pairFrame = 16
	pairPads  = 5
	pairPage  = 65536
)

// halfGen draws random instructions of one rir.Half, their cold
// payloads (a folded address, a select's condition) into f.
type halfGen struct {
	r *rand.Rand
	f *rir.Func
}

func (h halfGen) idx() int { return h.r.Intn(4) }
func (h halfGen) raw() int { return 4 + h.r.Intn(4) }
func (h halfGen) f64() int { return 8 + h.r.Intn(4) }
func (h halfGen) dst() int { return 12 + h.r.Intn(4) }
func (h halfGen) any() int { return h.r.Intn(12) }

// operands fills s.A/s.B: from pick, or an immediate from imm one time
// in three each; src >= 0 is planted in one of the two (or both).
func (h halfGen) operands(s *rir.Inst, src int, pick func() int, imm func() uint64) {
	s.A, s.B = int32(pick()), int32(pick())
	switch h.r.Intn(5) {
	case 0:
		s.Flags, s.Imm = s.Flags|rir.AImm, imm()
	case 1:
		s.Flags, s.Imm = s.Flags|rir.BImm, imm()
	}
	if src < 0 {
		return
	}
	switch w := h.r.Intn(5); {
	case w < 2 || s.Has(rir.BImm):
		s.A = int32(src)
		s.Flags &^= rir.AImm
	case w < 4 || s.Has(rir.AImm):
		s.B = int32(src)
		s.Flags &^= rir.BImm
	default:
		s.A, s.B = int32(src), int32(src)
	}
}

// bin draws a binary op over operands from pick or imm (see operands).
func (h halfGen) bin(op wasm.Opcode, src int, pick func() int, imm func() uint64) rir.Inst {
	s := rir.Inst{Shape: rir.ShBin, Op: op, Dst: int32(h.dst())}
	h.operands(&s, src, pick, imm)
	return s
}

// fimm draws a finite f64 immediate.
func (h halfGen) fimm() uint64 { return math.Float64bits(float64(h.r.Intn(200)-100) / 8) }

// lin draws an i32 linear op; small keeps its value a small index
// (what an unchecked access may be addressed by).
func (h halfGen) lin(src int, small bool) rir.Inst {
	for {
		s := rir.Inst{Shape: rir.ShBin, Dst: int32(h.dst())}
		imm := func() uint64 { return uint64(h.r.Intn(9)) }
		if small {
			s.Op = []wasm.Opcode{wasm.OpI32Add, wasm.OpI32Mul, wasm.OpI32Shl}[h.r.Intn(3)]
			imm = func() uint64 { return uint64(h.r.Intn(4)) }
		} else {
			s.Op = []wasm.Opcode{wasm.OpI32Add, wasm.OpI32Sub, wasm.OpI32Mul, wasm.OpI32Shl}[h.r.Intn(4)]
		}
		h.operands(&s, src, h.idx, imm)
		if h.f.HalfOf(&s) == rir.HLin && !(small && !s.Has(rir.AImm) && !s.Has(rir.BImm) && s.Op != wasm.OpI32Add) {
			return s
		}
	}
}

// access draws a load or store of op, checked or unchecked, with every
// address form: a slot, a constant (when no register feeds it) and a
// folded chain. A trap draw is a checked access just past the end of
// memory. src >= 0 is the address register.
func (h halfGen) access(shape rir.Shape, op wasm.Opcode, src int, trap bool) rir.Inst {
	s := rir.Inst{Shape: shape, Op: op, Dst: int32(h.dst()), A: int32(h.idx()), Off: uint64(8 * h.r.Intn(64)), Flags: rir.MemAcc}
	if !trap && h.r.Intn(2) == 0 {
		s.Flags = rir.Unchecked
	}
	if src >= 0 {
		s.A = int32(src)
	}
	if trap {
		s.Off = pairPage - 4
	}
	switch {
	case h.r.Intn(3) == 0 && src < 0:
		s.Flags |= rir.AImm
	case h.r.Intn(2) == 0:
		l := rir.Lin{X: int(s.A), CX: uint32(1 + h.r.Intn(8)), Y: h.idx(), CY: uint32(h.r.Intn(9)), K: uint32(h.r.Intn(64))}
		if h.r.Intn(2) == 0 {
			l.X, l.Y, l.CX, l.CY = l.Y, l.X, l.CY, l.CX
		}
		h.f.SetAddr(&s, l)
	}
	return s
}

// accessForm names a memory half's address form and check, or "" for
// another half.
func accessForm(f *rir.Func, s *rir.Inst) string {
	if s.Shape != rir.ShLoad && s.Shape != rir.ShStore {
		return ""
	}
	form := "slot"
	switch {
	case s.Has(rir.AImm):
		form = "constant"
	case f.Addr(s) != nil:
		form = "folded"
	}
	if s.Has(rir.Unchecked) {
		return form + " unchecked"
	}
	return form + " checked"
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
		s := rir.Inst{Shape: rir.ShBin, Op: wasm.OpI32RemS, Dst: int32(h.dst()), A: int32(h.any()), Flags: rir.BImm}
		s.Imm = []uint64{3, 29, uint64(uint32(math.MaxUint32)), 1 << 31}[h.r.Intn(4)] // incl. -1 and MinInt32
		return s
	case rir.HI64ExtendI32S:
		return rir.Inst{Shape: rir.ShUn, Op: wasm.OpI64ExtendI32S, Dst: int32(h.dst()), A: int32(h.any())}
	case rir.HLoad64:
		return h.access(rir.ShLoad, wasm.OpF64Load, -1, trap)
	case rir.HLoad32:
		return h.access(rir.ShLoad, wasm.OpI32Load, -1, trap)
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
		return rir.Inst{Shape: rir.ShMove, Dst: int32(h.dst()), A: int32(src)}
	case rir.HF64ConvertI32S:
		return rir.Inst{Shape: rir.ShUn, Op: wasm.OpF64ConvertI32S, Dst: int32(h.dst()), A: int32(src)}
	case rir.HSelect:
		s := rir.Inst{Shape: rir.ShSelect, Dst: int32(h.dst()), A: int32(h.any()), B: int32(h.any())}
		c := int32(h.idx())
		*[]*int32{&s.A, &s.B, &c, &c}[h.r.Intn(4)] = int32(src)
		h.f.SetC(&s, c)
		return s
	case rir.HLoad64:
		return h.access(rir.ShLoad, wasm.OpI64Load, src, trap)
	case rir.HStore64:
		s := h.access(rir.ShStore, wasm.OpF64Store, -1, trap)
		s.B = int32(src)
		return s
	case rir.HBrLt, rir.HBrEq:
		lt := []wasm.Opcode{
			wasm.OpI32LtS, wasm.OpI32LtU, wasm.OpI32GtS, wasm.OpI32GtU, wasm.OpI32LeS, wasm.OpI32LeU, wasm.OpI32GeS, wasm.OpI32GeU,
			wasm.OpI64LtS, wasm.OpI64LtU, wasm.OpI64GtS, wasm.OpI64GtU, wasm.OpI64LeS, wasm.OpI64LeU, wasm.OpI64GeS, wasm.OpI64GeU}
		eq := []wasm.Opcode{wasm.OpI32Eq, wasm.OpI32Ne, wasm.OpI64Eq, wasm.OpI64Ne}
		s := rir.Inst{Shape: rir.ShCmpBranch, CmpOp: lt[h.r.Intn(len(lt))]}
		if h.r.Intn(2) == 0 {
			s.Flags |= rir.BrOnTrue
		}
		s.Tgt = int32(2 + h.r.Intn(3))
		if k == rir.HBrEq {
			s.CmpOp = eq[h.r.Intn(len(eq))]
		}
		if h.r.Intn(2) == 0 {
			s.Flags |= rir.HasElse
			s.Else = int32(2 + h.r.Intn(3))
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

// runOps runs cf's stream from pc 0 to its return and returns the trap
// it raised, if any.
func runOps(inst *Instance, cf *cfunc) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = core.InvokeErr(r)
		}
	}()
	inst.run(cf, 0)
	return nil
}

// memHalf marks the halves that access memory.
var memHalf = map[rir.Half]bool{rir.HLoad64: true, rir.HLoad32: true, rir.HStore64: true}

// TestFlatPairsMatchUnfused runs every pair case against the two ops
// it replaces, on seeded frames and memory: same registers (the first
// half's included — when the second half traps, too), same memory, same
// branch taken, same trap kind and address. Each branch target, and
// the fall-through, is a return that carries its own marker slot into
// slot 0, so the frames show which was taken. It draws pairs until
// FuseMem has fused each pair a few hundred times, so the pass's own
// conditions (what consumes what) are under test with the cases, and a
// key in rir's table without a case here fails. A pair with a memory
// half must have run it checked and unchecked, from a slot and through
// a folded address, and trapped, first half or second.
func TestFlatPairsMatchUnfused(t *testing.T) {
	unfused, fused := pairInstance(t), pairInstance(t)
	for k := 2; k < pairPads; k++ {
		unfused.stack[pairFrame+k], fused.stack[pairFrame+k] = uint64(k), uint64(k)
	}
	h := halfGen{r: rand.New(rand.NewSource(42))}
	keys := rir.Pairs()
	slices.Sort(keys)
	if len(keys) < 20 {
		t.Fatalf("only %d templates", len(keys))
	}
	for _, key := range keys {
		k0, k1 := key>>8, key&0xff
		name := fmt.Sprintf("H%d;H%d", k0, k1)
		memory := memHalf[k0] || memHalf[k1]
		const want = 300
		formed, traps, taken, forms := 0, 0, map[uint64]int{}, map[string]int{}
		for draw := 0; formed < want; draw++ {
			if draw > 50*want {
				t.Fatalf("%s: FuseMem fused %d of %d drawn pairs", name, formed, draw)
			}
			trap := draw%8 == 0 && memory
			h.f = &rir.Func{NumLocals: 12}
			p0 := h.first(k0, trap)
			p1 := h.second(k1, int(p0.Dst), trap)
			stream := h.f
			stream.Code = []rir.Inst{p0, p1}
			for k := int32(2); k < pairPads; k++ {
				pad := rir.Inst{Shape: rir.ShReturn}
				stream.SetCarry(&pad, pairFrame+k, 0)
				stream.Code = append(stream.Code, pad)
			}
			fusedIR := *stream // the same cold tables, its own ops
			fusedIR.Code = slices.Clone(stream.Code)
			if fusedIR.FuseMem(nil) != 1 {
				continue
			}
			formed++
			forms[accessForm(stream, &p0)+accessForm(stream, &p1)]++
			cu, cf := cfunc{frameSize: pairFrame + pairPads}, cfunc{frameSize: pairFrame + pairPads}
			if err := cu.emit(stream); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if err := cf.emit(&fusedIR); err != nil {
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
			errU, errF := runOps(unfused, &cu), runOps(fused, &cf)
			desc := fmt.Sprintf("%s: %s ; %s", name, p0.String(stream), p1.String(stream))
			if (errU == nil) != (errF == nil) || (errU != nil && errU.Error() != errF.Error()) {
				t.Fatalf("%s\n unfused: %v\n   fused: %v", desc, errU, errF)
			}
			if !slices.Equal(unfused.stack[:pairFrame], fused.stack[:pairFrame]) {
				t.Fatalf("%s: frames differ\n unfused: %x\n   fused: %x", desc, unfused.stack[:pairFrame], fused.stack[:pairFrame])
			}
			if errU != nil {
				traps++
			} else {
				taken[fused.stack[0]]++
			}
		}
		if !bytes.Equal(unfused.base.Mem.Bytes(0, pairPage, false), fused.base.Mem.Bytes(0, pairPage, false)) {
			t.Fatalf("%s: memories differ", name)
		}
		if memory {
			if traps == 0 {
				t.Errorf("%s: no checked access trapped", name)
			}
			for _, form := range []string{"slot checked", "slot unchecked", "folded checked", "folded unchecked"} {
				if forms[form] == 0 {
					t.Errorf("%s: no %s access among %v", name, form, forms)
				}
			}
		}
		switch k1 {
		case rir.HBrLt, rir.HBrEq:
			if len(taken) < 3 {
				t.Errorf("%s: branches left to %v only", name, taken)
			}
		}
	}
}
