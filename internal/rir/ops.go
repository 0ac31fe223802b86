package rir

import (
	"math"
	"math/bits"

	"leapsandbounds/internal/numeric"
	"leapsandbounds/internal/wasm"
)

// BinFn operates on raw 64-bit values with wasm semantics (i32
// results zero-extended).
type BinFn func(a, b uint64) uint64

type UnFn func(a uint64) uint64

func bu(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func g32(v uint64) float32 { return math.Float32frombits(uint32(v)) }
func g64(v uint64) float64 { return math.Float64frombits(v) }
func p32(f float32) uint64 { return uint64(math.Float32bits(f)) }
func p64(f float64) uint64 { return math.Float64bits(f) }

// The tables below are indexed by opcode — a byte — so the passes and
// the emitter that consult them per instruction index where they would
// otherwise hash; an opcode a table does not list reads as the zero
// value (nil, false).

// BinOps maps every binary numeric opcode to its implementation.
var BinOps = [256]BinFn{
	wasm.OpI32Eq:  func(a, b uint64) uint64 { return bu(uint32(a) == uint32(b)) },
	wasm.OpI32Ne:  func(a, b uint64) uint64 { return bu(uint32(a) != uint32(b)) },
	wasm.OpI32LtS: func(a, b uint64) uint64 { return bu(int32(a) < int32(b)) },
	wasm.OpI32LtU: func(a, b uint64) uint64 { return bu(uint32(a) < uint32(b)) },
	wasm.OpI32GtS: func(a, b uint64) uint64 { return bu(int32(a) > int32(b)) },
	wasm.OpI32GtU: func(a, b uint64) uint64 { return bu(uint32(a) > uint32(b)) },
	wasm.OpI32LeS: func(a, b uint64) uint64 { return bu(int32(a) <= int32(b)) },
	wasm.OpI32LeU: func(a, b uint64) uint64 { return bu(uint32(a) <= uint32(b)) },
	wasm.OpI32GeS: func(a, b uint64) uint64 { return bu(int32(a) >= int32(b)) },
	wasm.OpI32GeU: func(a, b uint64) uint64 { return bu(uint32(a) >= uint32(b)) },

	wasm.OpI64Eq:  func(a, b uint64) uint64 { return bu(a == b) },
	wasm.OpI64Ne:  func(a, b uint64) uint64 { return bu(a != b) },
	wasm.OpI64LtS: func(a, b uint64) uint64 { return bu(int64(a) < int64(b)) },
	wasm.OpI64LtU: func(a, b uint64) uint64 { return bu(a < b) },
	wasm.OpI64GtS: func(a, b uint64) uint64 { return bu(int64(a) > int64(b)) },
	wasm.OpI64GtU: func(a, b uint64) uint64 { return bu(a > b) },
	wasm.OpI64LeS: func(a, b uint64) uint64 { return bu(int64(a) <= int64(b)) },
	wasm.OpI64LeU: func(a, b uint64) uint64 { return bu(a <= b) },
	wasm.OpI64GeS: func(a, b uint64) uint64 { return bu(int64(a) >= int64(b)) },
	wasm.OpI64GeU: func(a, b uint64) uint64 { return bu(a >= b) },

	wasm.OpF32Eq: func(a, b uint64) uint64 { return bu(g32(a) == g32(b)) },
	wasm.OpF32Ne: func(a, b uint64) uint64 { return bu(g32(a) != g32(b)) },
	wasm.OpF32Lt: func(a, b uint64) uint64 { return bu(g32(a) < g32(b)) },
	wasm.OpF32Gt: func(a, b uint64) uint64 { return bu(g32(a) > g32(b)) },
	wasm.OpF32Le: func(a, b uint64) uint64 { return bu(g32(a) <= g32(b)) },
	wasm.OpF32Ge: func(a, b uint64) uint64 { return bu(g32(a) >= g32(b)) },

	wasm.OpF64Eq: func(a, b uint64) uint64 { return bu(g64(a) == g64(b)) },
	wasm.OpF64Ne: func(a, b uint64) uint64 { return bu(g64(a) != g64(b)) },
	wasm.OpF64Lt: func(a, b uint64) uint64 { return bu(g64(a) < g64(b)) },
	wasm.OpF64Gt: func(a, b uint64) uint64 { return bu(g64(a) > g64(b)) },
	wasm.OpF64Le: func(a, b uint64) uint64 { return bu(g64(a) <= g64(b)) },
	wasm.OpF64Ge: func(a, b uint64) uint64 { return bu(g64(a) >= g64(b)) },

	wasm.OpI32Add: func(a, b uint64) uint64 { return uint64(uint32(a) + uint32(b)) },
	wasm.OpI32Sub: func(a, b uint64) uint64 { return uint64(uint32(a) - uint32(b)) },
	wasm.OpI32Mul: func(a, b uint64) uint64 { return uint64(uint32(a) * uint32(b)) },
	wasm.OpI32DivS: func(a, b uint64) uint64 {
		return uint64(uint32(numeric.DivS32(int32(a), int32(b))))
	},
	wasm.OpI32DivU: func(a, b uint64) uint64 { return uint64(numeric.DivU32(uint32(a), uint32(b))) },
	wasm.OpI32RemS: func(a, b uint64) uint64 {
		return uint64(uint32(numeric.RemS32(int32(a), int32(b))))
	},
	wasm.OpI32RemU: func(a, b uint64) uint64 { return uint64(numeric.RemU32(uint32(a), uint32(b))) },
	wasm.OpI32And:  func(a, b uint64) uint64 { return uint64(uint32(a) & uint32(b)) },
	wasm.OpI32Or:   func(a, b uint64) uint64 { return uint64(uint32(a) | uint32(b)) },
	wasm.OpI32Xor:  func(a, b uint64) uint64 { return uint64(uint32(a) ^ uint32(b)) },
	wasm.OpI32Shl:  func(a, b uint64) uint64 { return uint64(uint32(a) << (uint32(b) & 31)) },
	wasm.OpI32ShrS: func(a, b uint64) uint64 { return uint64(uint32(int32(a) >> (uint32(b) & 31))) },
	wasm.OpI32ShrU: func(a, b uint64) uint64 { return uint64(uint32(a) >> (uint32(b) & 31)) },
	wasm.OpI32Rotl: func(a, b uint64) uint64 {
		return uint64(bits.RotateLeft32(uint32(a), int(uint32(b)&31)))
	},
	wasm.OpI32Rotr: func(a, b uint64) uint64 {
		return uint64(bits.RotateLeft32(uint32(a), -int(uint32(b)&31)))
	},

	wasm.OpI64Add:  func(a, b uint64) uint64 { return a + b },
	wasm.OpI64Sub:  func(a, b uint64) uint64 { return a - b },
	wasm.OpI64Mul:  func(a, b uint64) uint64 { return a * b },
	wasm.OpI64DivS: func(a, b uint64) uint64 { return uint64(numeric.DivS64(int64(a), int64(b))) },
	wasm.OpI64DivU: func(a, b uint64) uint64 { return numeric.DivU64(a, b) },
	wasm.OpI64RemS: func(a, b uint64) uint64 { return uint64(numeric.RemS64(int64(a), int64(b))) },
	wasm.OpI64RemU: func(a, b uint64) uint64 { return numeric.RemU64(a, b) },
	wasm.OpI64And:  func(a, b uint64) uint64 { return a & b },
	wasm.OpI64Or:   func(a, b uint64) uint64 { return a | b },
	wasm.OpI64Xor:  func(a, b uint64) uint64 { return a ^ b },
	wasm.OpI64Shl:  func(a, b uint64) uint64 { return a << (b & 63) },
	wasm.OpI64ShrS: func(a, b uint64) uint64 { return uint64(int64(a) >> (b & 63)) },
	wasm.OpI64ShrU: func(a, b uint64) uint64 { return a >> (b & 63) },
	wasm.OpI64Rotl: func(a, b uint64) uint64 { return bits.RotateLeft64(a, int(b&63)) },
	wasm.OpI64Rotr: func(a, b uint64) uint64 { return bits.RotateLeft64(a, -int(b&63)) },

	wasm.OpF32Add: func(a, b uint64) uint64 { return p32(g32(a) + g32(b)) },
	wasm.OpF32Sub: func(a, b uint64) uint64 { return p32(g32(a) - g32(b)) },
	wasm.OpF32Mul: func(a, b uint64) uint64 { return p32(g32(a) * g32(b)) },
	wasm.OpF32Div: func(a, b uint64) uint64 { return p32(g32(a) / g32(b)) },
	wasm.OpF32Min: func(a, b uint64) uint64 { return p32(numeric.Fmin32(g32(a), g32(b))) },
	wasm.OpF32Max: func(a, b uint64) uint64 { return p32(numeric.Fmax32(g32(a), g32(b))) },
	wasm.OpF32Copysign: func(a, b uint64) uint64 {
		return p32(float32(math.Copysign(float64(g32(a)), float64(g32(b)))))
	},

	wasm.OpF64Add:      func(a, b uint64) uint64 { return p64(g64(a) + g64(b)) },
	wasm.OpF64Sub:      func(a, b uint64) uint64 { return p64(g64(a) - g64(b)) },
	wasm.OpF64Mul:      func(a, b uint64) uint64 { return p64(g64(a) * g64(b)) },
	wasm.OpF64Div:      func(a, b uint64) uint64 { return p64(g64(a) / g64(b)) },
	wasm.OpF64Min:      func(a, b uint64) uint64 { return p64(numeric.Fmin(g64(a), g64(b))) },
	wasm.OpF64Max:      func(a, b uint64) uint64 { return p64(numeric.Fmax(g64(a), g64(b))) },
	wasm.OpF64Copysign: func(a, b uint64) uint64 { return p64(math.Copysign(g64(a), g64(b))) },
}

// FoldableBin lists binary ops that are safe to constant-fold at
// compile time (no traps, bit-exact evaluation).
var FoldableBin = [256]bool{
	wasm.OpI32Add: true, wasm.OpI32Sub: true, wasm.OpI32Mul: true,
	wasm.OpI32And: true, wasm.OpI32Or: true, wasm.OpI32Xor: true,
	wasm.OpI32Shl: true, wasm.OpI32ShrS: true, wasm.OpI32ShrU: true,
	wasm.OpI32Rotl: true, wasm.OpI32Rotr: true,
	wasm.OpI64Add: true, wasm.OpI64Sub: true, wasm.OpI64Mul: true,
	wasm.OpI64And: true, wasm.OpI64Or: true, wasm.OpI64Xor: true,
	wasm.OpI64Shl: true, wasm.OpI64ShrS: true, wasm.OpI64ShrU: true,
	wasm.OpI32Eq: true, wasm.OpI32Ne: true, wasm.OpI32LtS: true,
	wasm.OpI32LtU: true, wasm.OpI32GtS: true, wasm.OpI32GtU: true,
	wasm.OpI32LeS: true, wasm.OpI32LeU: true, wasm.OpI32GeS: true,
	wasm.OpI32GeU: true,
	wasm.OpF64Add: true, wasm.OpF64Sub: true, wasm.OpF64Mul: true,
}

// CmpBranchOps lists compare opcodes eligible for compare+branch
// fusion.
var CmpBranchOps = [256]bool{
	wasm.OpI32Eq: true, wasm.OpI32Ne: true,
	wasm.OpI32LtS: true, wasm.OpI32LtU: true,
	wasm.OpI32GtS: true, wasm.OpI32GtU: true,
	wasm.OpI32LeS: true, wasm.OpI32LeU: true,
	wasm.OpI32GeS: true, wasm.OpI32GeU: true,
	wasm.OpI64Eq: true, wasm.OpI64Ne: true,
	wasm.OpI64LtS: true, wasm.OpI64LtU: true,
	wasm.OpI64GtS: true, wasm.OpI64GtU: true,
	wasm.OpI64LeS: true, wasm.OpI64LeU: true,
	wasm.OpI64GeS: true, wasm.OpI64GeU: true,
	wasm.OpF64Lt: true, wasm.OpF64Le: true, wasm.OpF64Gt: true,
	wasm.OpF64Ge: true, wasm.OpF64Eq: true, wasm.OpF64Ne: true,
}

// UnOps maps every unary numeric opcode (including conversions) to
// its implementation.
var UnOps = [256]UnFn{
	wasm.OpI32Eqz:    func(a uint64) uint64 { return bu(uint32(a) == 0) },
	wasm.OpI64Eqz:    func(a uint64) uint64 { return bu(a == 0) },
	wasm.OpI32Clz:    func(a uint64) uint64 { return uint64(bits.LeadingZeros32(uint32(a))) },
	wasm.OpI32Ctz:    func(a uint64) uint64 { return uint64(bits.TrailingZeros32(uint32(a))) },
	wasm.OpI32Popcnt: func(a uint64) uint64 { return uint64(bits.OnesCount32(uint32(a))) },
	wasm.OpI64Clz:    func(a uint64) uint64 { return uint64(bits.LeadingZeros64(a)) },
	wasm.OpI64Ctz:    func(a uint64) uint64 { return uint64(bits.TrailingZeros64(a)) },
	wasm.OpI64Popcnt: func(a uint64) uint64 { return uint64(bits.OnesCount64(a)) },

	wasm.OpF32Abs:     func(a uint64) uint64 { return p32(float32(math.Abs(float64(g32(a))))) },
	wasm.OpF32Neg:     func(a uint64) uint64 { return p32(-g32(a)) },
	wasm.OpF32Ceil:    func(a uint64) uint64 { return p32(float32(math.Ceil(float64(g32(a))))) },
	wasm.OpF32Floor:   func(a uint64) uint64 { return p32(float32(math.Floor(float64(g32(a))))) },
	wasm.OpF32Trunc:   func(a uint64) uint64 { return p32(float32(math.Trunc(float64(g32(a))))) },
	wasm.OpF32Nearest: func(a uint64) uint64 { return p32(numeric.Nearest32(g32(a))) },
	wasm.OpF32Sqrt:    func(a uint64) uint64 { return p32(float32(math.Sqrt(float64(g32(a))))) },

	wasm.OpF64Abs:     func(a uint64) uint64 { return p64(math.Abs(g64(a))) },
	wasm.OpF64Neg:     func(a uint64) uint64 { return p64(-g64(a)) },
	wasm.OpF64Ceil:    func(a uint64) uint64 { return p64(math.Ceil(g64(a))) },
	wasm.OpF64Floor:   func(a uint64) uint64 { return p64(math.Floor(g64(a))) },
	wasm.OpF64Trunc:   func(a uint64) uint64 { return p64(math.Trunc(g64(a))) },
	wasm.OpF64Nearest: func(a uint64) uint64 { return p64(numeric.Nearest(g64(a))) },
	wasm.OpF64Sqrt:    func(a uint64) uint64 { return p64(math.Sqrt(g64(a))) },

	wasm.OpI32WrapI64:     func(a uint64) uint64 { return uint64(uint32(a)) },
	wasm.OpI32TruncF32S:   func(a uint64) uint64 { return uint64(uint32(numeric.TruncF32ToI32(g32(a)))) },
	wasm.OpI32TruncF32U:   func(a uint64) uint64 { return uint64(numeric.TruncF32ToU32(g32(a))) },
	wasm.OpI32TruncF64S:   func(a uint64) uint64 { return uint64(uint32(numeric.TruncF64ToI32(g64(a)))) },
	wasm.OpI32TruncF64U:   func(a uint64) uint64 { return uint64(numeric.TruncF64ToU32(g64(a))) },
	wasm.OpI64ExtendI32S:  func(a uint64) uint64 { return uint64(int64(int32(a))) },
	wasm.OpI64ExtendI32U:  func(a uint64) uint64 { return uint64(uint32(a)) },
	wasm.OpI64TruncF32S:   func(a uint64) uint64 { return uint64(numeric.TruncF32ToI64(g32(a))) },
	wasm.OpI64TruncF32U:   func(a uint64) uint64 { return numeric.TruncF32ToU64(g32(a)) },
	wasm.OpI64TruncF64S:   func(a uint64) uint64 { return uint64(numeric.TruncF64ToI64(g64(a))) },
	wasm.OpI64TruncF64U:   func(a uint64) uint64 { return numeric.TruncF64ToU64(g64(a)) },
	wasm.OpF32ConvertI32S: func(a uint64) uint64 { return p32(float32(int32(a))) },
	wasm.OpF32ConvertI32U: func(a uint64) uint64 { return p32(float32(uint32(a))) },
	wasm.OpF32ConvertI64S: func(a uint64) uint64 { return p32(float32(int64(a))) },
	wasm.OpF32ConvertI64U: func(a uint64) uint64 { return p32(float32(a)) },
	wasm.OpF32DemoteF64:   func(a uint64) uint64 { return p32(float32(g64(a))) },
	wasm.OpF64ConvertI32S: func(a uint64) uint64 { return p64(float64(int32(a))) },
	wasm.OpF64ConvertI32U: func(a uint64) uint64 { return p64(float64(uint32(a))) },
	wasm.OpF64ConvertI64S: func(a uint64) uint64 { return p64(float64(int64(a))) },
	wasm.OpF64ConvertI64U: func(a uint64) uint64 { return p64(float64(a)) },
	wasm.OpF64PromoteF32:  func(a uint64) uint64 { return p64(float64(g32(a))) },

	wasm.OpI32ReinterpretF32: func(a uint64) uint64 { return a },
	wasm.OpI64ReinterpretF64: func(a uint64) uint64 { return a },
	wasm.OpF32ReinterpretI32: func(a uint64) uint64 { return a },
	wasm.OpF64ReinterpretI64: func(a uint64) uint64 { return a },

	wasm.OpI32Extend8S:  func(a uint64) uint64 { return uint64(uint32(int32(int8(a)))) },
	wasm.OpI32Extend16S: func(a uint64) uint64 { return uint64(uint32(int32(int16(a)))) },
	wasm.OpI64Extend8S:  func(a uint64) uint64 { return uint64(int64(int8(a))) },
	wasm.OpI64Extend16S: func(a uint64) uint64 { return uint64(int64(int16(a))) },
	wasm.OpI64Extend32S: func(a uint64) uint64 { return uint64(int64(int32(a))) },
}

// TruncSatOps maps the 0xFC saturating truncations.
var TruncSatOps = map[wasm.SubOpcode]UnFn{
	wasm.SubI32TruncSatF32S: func(a uint64) uint64 { return uint64(uint32(numeric.TruncSatF32ToI32(g32(a)))) },
	wasm.SubI32TruncSatF32U: func(a uint64) uint64 { return uint64(numeric.TruncSatF32ToU32(g32(a))) },
	wasm.SubI32TruncSatF64S: func(a uint64) uint64 { return uint64(uint32(numeric.TruncSatF64ToI32(g64(a)))) },
	wasm.SubI32TruncSatF64U: func(a uint64) uint64 { return uint64(numeric.TruncSatF64ToU32(g64(a))) },
	wasm.SubI64TruncSatF32S: func(a uint64) uint64 { return uint64(numeric.TruncSatF32ToI64(g32(a))) },
	wasm.SubI64TruncSatF32U: func(a uint64) uint64 { return numeric.TruncSatF32ToU64(g32(a)) },
	wasm.SubI64TruncSatF64S: func(a uint64) uint64 { return uint64(numeric.TruncSatF64ToI64(g64(a))) },
	wasm.SubI64TruncSatF64U: func(a uint64) uint64 { return numeric.TruncSatF64ToU64(g64(a)) },
}
