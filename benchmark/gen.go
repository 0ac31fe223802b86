package main

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand"

	leaps "leapsandbounds"
	"leapsandbounds/internal/wasm"
	g "leapsandbounds/internal/wasmgen"
)

// The coldstart corpus stands in for real Wasm binaries, which have
// hundreds of functions where the registered kernels have one or two.
// Only what the seed cannot change is fixed here: function counts, ops
// per function and trip counts are constants so that every seed costs
// the same amount of work; the seed picks operators, constants and
// offsets.
var corpusFuncCounts = []int{32, 64, 96, 128, 192, 256}

const (
	genOpsPerFunc = 16
	genTrips      = 4
	genMemBytes   = 65536
)

type genOpKind uint8

const (
	genAdd genOpKind = iota
	genMul
	genXor
	genRotl
	genShl
	genShrU
	numGenOps
)

// genOp is one step of a generated function: acc = acc <kind> operand,
// where operand is a constant or an i64 load at ((i*8)&0xff8)+off, and
// acc is optionally stored back to the same address.
type genOp struct {
	kind  genOpKind
	load  bool
	store bool
	k     int64
	off   uint32
}

type genFunc struct {
	init int64
	ops  []genOp
}

// corpusModule is one generated module with the digest the generator
// computed by evaluating the same op lists in plain Go.
type corpusModule struct {
	name  string
	bytes []byte
	funcs int
	want  uint64
}

func genFuncs(rng *rand.Rand, n int) []genFunc {
	fs := make([]genFunc, n)
	for i := range fs {
		fs[i].init = rng.Int63()
		fs[i].ops = make([]genOp, genOpsPerFunc)
		for j := range fs[i].ops {
			op := genOp{kind: genOpKind(rng.Intn(int(numGenOps))), k: rng.Int63() | 1}
			// 0xff8 + 8 bytes of load leaves the top of the page free.
			op.off = uint32(rng.Intn(genMemBytes-0x1000-8)) &^ 7
			switch rng.Intn(4) {
			case 0:
				op.load = true
			case 1:
				op.load, op.store = true, true
			}
			fs[i].ops[j] = op
		}
	}
	return fs
}

func (o genOp) apply(acc, operand uint64) uint64 {
	switch o.kind {
	case genAdd:
		return acc + operand
	case genMul:
		return acc * operand
	case genXor:
		return acc ^ operand
	case genRotl:
		return bits.RotateLeft64(acc, int(operand&63))
	case genShl:
		return acc << (operand & 63)
	default:
		return acc >> (operand & 63)
	}
}

// evalFuncs is the reference: the op lists run directly in Go over a
// zeroed 64 KiB memory, folded the way the module's run export folds.
func evalFuncs(fs []genFunc) uint64 {
	mem := make([]byte, genMemBytes)
	var total uint64
	for _, f := range fs {
		acc := uint64(f.init)
		for i := uint32(0); i < genTrips; i++ {
			for _, op := range f.ops {
				addr := (i*8)&0xff8 + op.off
				operand := uint64(op.k)
				if op.load {
					operand = binary.LittleEndian.Uint64(mem[addr:])
				}
				acc = op.apply(acc, operand)
				if op.store {
					binary.LittleEndian.PutUint64(mem[addr:], acc)
				}
			}
		}
		total = total*31 + acc
	}
	return total
}

func (o genOp) expr(acc, operand g.Expr) g.Expr {
	switch o.kind {
	case genAdd:
		return g.Add(acc, operand)
	case genMul:
		return g.Mul(acc, operand)
	case genXor:
		return g.Xor(acc, operand)
	case genRotl:
		return g.Rotl(acc, operand)
	case genShl:
		return g.Shl(acc, operand)
	default:
		return g.ShrU(acc, operand)
	}
}

func emitFuncs(fs []genFunc) ([]byte, error) {
	mb := g.NewModule()
	mb.Memory(1, 1)
	run := mb.Func("run", wasm.I64)
	total := run.LocalI64("total")
	for _, f := range fs {
		fn := mb.Func("", wasm.I64)
		i := fn.LocalI32("i")
		acc := fn.LocalI64("acc")
		var body []g.Stmt
		for _, op := range f.ops {
			addr := g.And(g.Shl(g.Get(i), g.I32(3)), g.I32(0xff8))
			var operand g.Expr = g.I64(op.k)
			if op.load {
				operand = g.LoadI64(addr, op.off)
			}
			body = append(body, g.Set(acc, op.expr(g.Get(acc), operand)))
			if op.store {
				body = append(body, g.StoreI64(addr, op.off, g.Get(acc)))
			}
		}
		fn.Body(
			g.Set(acc, g.I64(f.init)),
			g.For(i, g.I32(0), g.I32(genTrips), body...),
			g.Return(g.Get(acc)),
		)
		run.Body(g.Set(total, g.Add(g.Mul(g.Get(total), g.I64(31)), g.Call(fn))))
	}
	run.Body(g.Return(g.Get(total)))
	mb.Export("run", run)
	m, err := mb.Module()
	if err != nil {
		return nil, err
	}
	return leaps.EncodeModule(m)
}

// genCorpus builds the corpus for a seed; the same seed gives
// byte-identical modules.
func genCorpus(seed int64, funcCounts []int) ([]corpusModule, error) {
	rng := rand.New(rand.NewSource(seed))
	var out []corpusModule
	for _, n := range funcCounts {
		fs := genFuncs(rng, n)
		b, err := emitFuncs(fs)
		if err != nil {
			return nil, err
		}
		out = append(out, corpusModule{name: fmt.Sprintf("gen%d", n), bytes: b, funcs: n, want: evalFuncs(fs)})
	}
	return out, nil
}
