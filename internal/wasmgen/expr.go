package wasmgen

import (
	"fmt"
	"math"

	"leapsandbounds/internal/wasm"
)

// Expr is a typed expression node. Expressions are side-effect free
// except for Call and MemGrow.
type Expr interface {
	emit(e *emitter)
	Type() wasm.ValueType
}

func mustType(what string, e Expr, want wasm.ValueType) {
	if e.Type() != want {
		panic(fmt.Sprintf("wasmgen: %s: operand has type %s, want %s", what, e.Type(), want))
	}
}

func mustSameType(what string, a, b Expr) wasm.ValueType {
	if a.Type() != b.Type() {
		panic(fmt.Sprintf("wasmgen: %s: operand types differ: %s vs %s", what, a.Type(), b.Type()))
	}
	return a.Type()
}

// constExpr is a literal.
type constExpr struct {
	op  wasm.Opcode
	raw uint64
	typ wasm.ValueType
}

func (c constExpr) Type() wasm.ValueType { return c.typ }
func (c constExpr) emit(e *emitter)      { e.opA(c.op, c.raw) }

// I32 is an i32 literal.
func I32(v int32) Expr {
	return constExpr{wasm.OpI32Const, uint64(uint32(v)), wasm.I32}
}

// U32 is an i32 literal from an unsigned value.
func U32(v uint32) Expr { return constExpr{wasm.OpI32Const, uint64(v), wasm.I32} }

// I64 is an i64 literal.
func I64(v int64) Expr { return constExpr{wasm.OpI64Const, uint64(v), wasm.I64} }

// F32 is an f32 literal.
func F32(v float32) Expr {
	return constExpr{wasm.OpF32Const, uint64(math.Float32bits(v)), wasm.F32}
}

// F64 is an f64 literal.
func F64(v float64) Expr {
	return constExpr{wasm.OpF64Const, math.Float64bits(v), wasm.F64}
}

// localExpr reads a local.
type localExpr struct{ l *Local }

func (x localExpr) Type() wasm.ValueType { return x.l.typ }
func (x localExpr) emit(e *emitter)      { e.opA(wasm.OpLocalGet, uint64(x.l.index)) }

// Get reads a local variable or parameter.
func Get(l *Local) Expr { return localExpr{l} }

// globalExpr reads a global.
type globalExpr struct{ g *GlobalVar }

func (x globalExpr) Type() wasm.ValueType { return x.g.typ }
func (x globalExpr) emit(e *emitter)      { e.opA(wasm.OpGlobalGet, uint64(x.g.index)) }

// GetG reads a module global.
func GetG(g *GlobalVar) Expr { return globalExpr{g} }

// binExpr applies a type-directed binary opcode.
type binExpr struct {
	a, b Expr
	op   wasm.Opcode
	typ  wasm.ValueType // result type
}

func (x binExpr) Type() wasm.ValueType { return x.typ }
func (x binExpr) emit(e *emitter) {
	x.a.emit(e)
	x.b.emit(e)
	e.op(x.op)
}

// opFor selects the opcode variant for t from the per-type table
// [i32, i64, f32, f64]; a zero entry means the op is unsupported.
func opFor(what string, t wasm.ValueType, ops [4]wasm.Opcode) wasm.Opcode {
	var op wasm.Opcode
	switch t {
	case wasm.I32:
		op = ops[0]
	case wasm.I64:
		op = ops[1]
	case wasm.F32:
		op = ops[2]
	case wasm.F64:
		op = ops[3]
	}
	if op == 0 {
		panic(fmt.Sprintf("wasmgen: %s not defined for %s", what, t))
	}
	return op
}

func binOp(what string, a, b Expr, ops [4]wasm.Opcode) Expr {
	t := mustSameType(what, a, b)
	return binExpr{a, b, opFor(what, t, ops), t}
}

func cmpOp(what string, a, b Expr, ops [4]wasm.Opcode) Expr {
	t := mustSameType(what, a, b)
	return binExpr{a, b, opFor(what, t, ops), wasm.I32}
}

// Add returns a+b for any numeric type.
func Add(a, b Expr) Expr {
	return binOp("add", a, b, [4]wasm.Opcode{wasm.OpI32Add, wasm.OpI64Add, wasm.OpF32Add, wasm.OpF64Add})
}

// Sub returns a-b.
func Sub(a, b Expr) Expr {
	return binOp("sub", a, b, [4]wasm.Opcode{wasm.OpI32Sub, wasm.OpI64Sub, wasm.OpF32Sub, wasm.OpF64Sub})
}

// Mul returns a*b.
func Mul(a, b Expr) Expr {
	return binOp("mul", a, b, [4]wasm.Opcode{wasm.OpI32Mul, wasm.OpI64Mul, wasm.OpF32Mul, wasm.OpF64Mul})
}

// Div returns a/b: signed division for integers, IEEE for floats.
func Div(a, b Expr) Expr {
	return binOp("div", a, b, [4]wasm.Opcode{wasm.OpI32DivS, wasm.OpI64DivS, wasm.OpF32Div, wasm.OpF64Div})
}

// DivU returns unsigned integer division.
func DivU(a, b Expr) Expr {
	return binOp("div_u", a, b, [4]wasm.Opcode{wasm.OpI32DivU, wasm.OpI64DivU, 0, 0})
}

// Rem returns the signed integer remainder.
func Rem(a, b Expr) Expr {
	return binOp("rem_s", a, b, [4]wasm.Opcode{wasm.OpI32RemS, wasm.OpI64RemS, 0, 0})
}

// RemU returns the unsigned integer remainder.
func RemU(a, b Expr) Expr {
	return binOp("rem_u", a, b, [4]wasm.Opcode{wasm.OpI32RemU, wasm.OpI64RemU, 0, 0})
}

// And returns the bitwise AND.
func And(a, b Expr) Expr {
	return binOp("and", a, b, [4]wasm.Opcode{wasm.OpI32And, wasm.OpI64And, 0, 0})
}

// Or returns the bitwise OR.
func Or(a, b Expr) Expr {
	return binOp("or", a, b, [4]wasm.Opcode{wasm.OpI32Or, wasm.OpI64Or, 0, 0})
}

// Xor returns the bitwise XOR.
func Xor(a, b Expr) Expr {
	return binOp("xor", a, b, [4]wasm.Opcode{wasm.OpI32Xor, wasm.OpI64Xor, 0, 0})
}

// Shl returns a<<b.
func Shl(a, b Expr) Expr {
	return binOp("shl", a, b, [4]wasm.Opcode{wasm.OpI32Shl, wasm.OpI64Shl, 0, 0})
}

// ShrS returns the arithmetic right shift.
func ShrS(a, b Expr) Expr {
	return binOp("shr_s", a, b, [4]wasm.Opcode{wasm.OpI32ShrS, wasm.OpI64ShrS, 0, 0})
}

// ShrU returns the logical right shift.
func ShrU(a, b Expr) Expr {
	return binOp("shr_u", a, b, [4]wasm.Opcode{wasm.OpI32ShrU, wasm.OpI64ShrU, 0, 0})
}

// Rotl rotates a left by b bits.
func Rotl(a, b Expr) Expr {
	return binOp("rotl", a, b, [4]wasm.Opcode{wasm.OpI32Rotl, wasm.OpI64Rotl, 0, 0})
}

// Eq returns a==b as i32.
func Eq(a, b Expr) Expr {
	return cmpOp("eq", a, b, [4]wasm.Opcode{wasm.OpI32Eq, wasm.OpI64Eq, wasm.OpF32Eq, wasm.OpF64Eq})
}

// Ne returns a!=b as i32.
func Ne(a, b Expr) Expr {
	return cmpOp("ne", a, b, [4]wasm.Opcode{wasm.OpI32Ne, wasm.OpI64Ne, wasm.OpF32Ne, wasm.OpF64Ne})
}

// Lt returns a<b (signed for integers).
func Lt(a, b Expr) Expr {
	return cmpOp("lt", a, b, [4]wasm.Opcode{wasm.OpI32LtS, wasm.OpI64LtS, wasm.OpF32Lt, wasm.OpF64Lt})
}

// LtU returns the unsigned a<b.
func LtU(a, b Expr) Expr {
	return cmpOp("lt_u", a, b, [4]wasm.Opcode{wasm.OpI32LtU, wasm.OpI64LtU, 0, 0})
}

// Le returns a<=b (signed for integers).
func Le(a, b Expr) Expr {
	return cmpOp("le", a, b, [4]wasm.Opcode{wasm.OpI32LeS, wasm.OpI64LeS, wasm.OpF32Le, wasm.OpF64Le})
}

// Gt returns a>b (signed for integers).
func Gt(a, b Expr) Expr {
	return cmpOp("gt", a, b, [4]wasm.Opcode{wasm.OpI32GtS, wasm.OpI64GtS, wasm.OpF32Gt, wasm.OpF64Gt})
}

// GtU returns the unsigned a>b.
func GtU(a, b Expr) Expr {
	return cmpOp("gt_u", a, b, [4]wasm.Opcode{wasm.OpI32GtU, wasm.OpI64GtU, 0, 0})
}

// Ge returns a>=b (signed for integers).
func Ge(a, b Expr) Expr {
	return cmpOp("ge", a, b, [4]wasm.Opcode{wasm.OpI32GeS, wasm.OpI64GeS, wasm.OpF32Ge, wasm.OpF64Ge})
}

// GeU returns the unsigned a>=b.
func GeU(a, b Expr) Expr {
	return cmpOp("ge_u", a, b, [4]wasm.Opcode{wasm.OpI32GeU, wasm.OpI64GeU, 0, 0})
}

// unExpr applies a unary opcode.
type unExpr struct {
	a   Expr
	op  wasm.Opcode
	typ wasm.ValueType
}

func (x unExpr) Type() wasm.ValueType { return x.typ }
func (x unExpr) emit(e *emitter) {
	x.a.emit(e)
	e.op(x.op)
}

func unOp(what string, a Expr, ops [4]wasm.Opcode) Expr {
	op := opFor(what, a.Type(), ops)
	return unExpr{a, op, a.Type()}
}

// Eqz returns a==0 as i32 for integer a.
func Eqz(a Expr) Expr {
	op := opFor("eqz", a.Type(), [4]wasm.Opcode{wasm.OpI32Eqz, wasm.OpI64Eqz, 0, 0})
	return unExpr{a, op, wasm.I32}
}

// Neg returns -a for float a.
func Neg(a Expr) Expr {
	return unOp("neg", a, [4]wasm.Opcode{0, 0, wasm.OpF32Neg, wasm.OpF64Neg})
}

// Abs returns |a| for float a.
func Abs(a Expr) Expr {
	return unOp("abs", a, [4]wasm.Opcode{0, 0, wasm.OpF32Abs, wasm.OpF64Abs})
}

// Sqrt returns the square root of float a.
func Sqrt(a Expr) Expr {
	return unOp("sqrt", a, [4]wasm.Opcode{0, 0, wasm.OpF32Sqrt, wasm.OpF64Sqrt})
}

// Floor returns the floor of float a.
func Floor(a Expr) Expr {
	return unOp("floor", a, [4]wasm.Opcode{0, 0, wasm.OpF32Floor, wasm.OpF64Floor})
}

// Clz returns the count of leading zeros of integer a.
func Clz(a Expr) Expr {
	return unOp("clz", a, [4]wasm.Opcode{wasm.OpI32Clz, wasm.OpI64Clz, 0, 0})
}

// Ctz returns the count of trailing zeros of integer a.
func Ctz(a Expr) Expr {
	return unOp("ctz", a, [4]wasm.Opcode{wasm.OpI32Ctz, wasm.OpI64Ctz, 0, 0})
}

// Popcnt returns the population count of integer a.
func Popcnt(a Expr) Expr {
	return unOp("popcnt", a, [4]wasm.Opcode{wasm.OpI32Popcnt, wasm.OpI64Popcnt, 0, 0})
}

// Min returns the IEEE minimum of two floats.
func Min(a, b Expr) Expr {
	return binOp("min", a, b, [4]wasm.Opcode{0, 0, wasm.OpF32Min, wasm.OpF64Min})
}

// Max returns the IEEE maximum of two floats.
func Max(a, b Expr) Expr {
	return binOp("max", a, b, [4]wasm.Opcode{0, 0, wasm.OpF32Max, wasm.OpF64Max})
}

// convExpr is a conversion.
type convExpr struct {
	a   Expr
	op  wasm.Opcode
	typ wasm.ValueType
}

func (x convExpr) Type() wasm.ValueType { return x.typ }
func (x convExpr) emit(e *emitter) {
	x.a.emit(e)
	e.op(x.op)
}

func conv(what string, a Expr, from, to wasm.ValueType, op wasm.Opcode) Expr {
	mustType(what, a, from)
	return convExpr{a, op, to}
}

// F64FromI32 converts a signed i32 to f64.
func F64FromI32(a Expr) Expr {
	return conv("f64.convert_i32_s", a, wasm.I32, wasm.F64, wasm.OpF64ConvertI32S)
}

// F64FromI32U converts an unsigned i32 to f64.
func F64FromI32U(a Expr) Expr {
	return conv("f64.convert_i32_u", a, wasm.I32, wasm.F64, wasm.OpF64ConvertI32U)
}

// F64FromI64 converts a signed i64 to f64.
func F64FromI64(a Expr) Expr {
	return conv("f64.convert_i64_s", a, wasm.I64, wasm.F64, wasm.OpF64ConvertI64S)
}

// F32FromI32 converts a signed i32 to f32.
func F32FromI32(a Expr) Expr {
	return conv("f32.convert_i32_s", a, wasm.I32, wasm.F32, wasm.OpF32ConvertI32S)
}

// I32FromF64 truncates an f64 to signed i32 (trapping form).
func I32FromF64(a Expr) Expr {
	return conv("i32.trunc_f64_s", a, wasm.F64, wasm.I32, wasm.OpI32TruncF64S)
}

// I64FromF64 truncates an f64 to signed i64 (trapping form).
func I64FromF64(a Expr) Expr {
	return conv("i64.trunc_f64_s", a, wasm.F64, wasm.I64, wasm.OpI64TruncF64S)
}

// I64FromI32 sign-extends an i32 to i64.
func I64FromI32(a Expr) Expr {
	return conv("i64.extend_i32_s", a, wasm.I32, wasm.I64, wasm.OpI64ExtendI32S)
}

// I64FromI32U zero-extends an i32 to i64.
func I64FromI32U(a Expr) Expr {
	return conv("i64.extend_i32_u", a, wasm.I32, wasm.I64, wasm.OpI64ExtendI32U)
}

// I32FromI64 wraps an i64 to i32.
func I32FromI64(a Expr) Expr {
	return conv("i32.wrap_i64", a, wasm.I64, wasm.I32, wasm.OpI32WrapI64)
}

// F64FromF32 promotes an f32 to f64.
func F64FromF32(a Expr) Expr {
	return conv("f64.promote_f32", a, wasm.F32, wasm.F64, wasm.OpF64PromoteF32)
}

// F32FromF64 demotes an f64 to f32.
func F32FromF64(a Expr) Expr {
	return conv("f32.demote_f64", a, wasm.F64, wasm.F32, wasm.OpF32DemoteF64)
}

// I64ReinterpretF64 returns the raw bits of an f64 as i64.
func I64ReinterpretF64(a Expr) Expr {
	return conv("i64.reinterpret_f64", a, wasm.F64, wasm.I64, wasm.OpI64ReinterpretF64)
}

// selExpr is cond ? a : b without branching.
type selExpr struct{ cond, a, b Expr }

func (x selExpr) Type() wasm.ValueType { return x.a.Type() }
func (x selExpr) emit(e *emitter) {
	x.a.emit(e)
	x.b.emit(e)
	x.cond.emit(e)
	e.op(wasm.OpSelect)
}

// Sel returns a when cond is non-zero and b otherwise; both operands
// are always evaluated (wasm select semantics).
func Sel(cond, a, b Expr) Expr {
	mustType("select condition", cond, wasm.I32)
	mustSameType("select", a, b)
	return selExpr{cond, a, b}
}

// loadExpr is a memory load with a static offset.
type loadExpr struct {
	addr   Expr
	op     wasm.Opcode
	offset uint32
	typ    wasm.ValueType
}

func (x loadExpr) Type() wasm.ValueType { return x.typ }
func (x loadExpr) emit(e *emitter) {
	x.addr.emit(e)
	e.mem(x.op, naturalAlign(x.op), x.offset)
}

func naturalAlign(op wasm.Opcode) uint32 {
	switch op.AccessWidth() {
	case 1:
		return 0
	case 2:
		return 1
	case 4:
		return 2
	default:
		return 3
	}
}

func load(addr Expr, op wasm.Opcode, offset uint32, t wasm.ValueType) Expr {
	mustType("load address", addr, wasm.I32)
	return loadExpr{addr, op, offset, t}
}

// LoadI32 loads an i32 at addr+offset.
func LoadI32(addr Expr, offset uint32) Expr { return load(addr, wasm.OpI32Load, offset, wasm.I32) }

// LoadI64 loads an i64 at addr+offset.
func LoadI64(addr Expr, offset uint32) Expr { return load(addr, wasm.OpI64Load, offset, wasm.I64) }

// LoadF32 loads an f32 at addr+offset.
func LoadF32(addr Expr, offset uint32) Expr { return load(addr, wasm.OpF32Load, offset, wasm.F32) }

// LoadF64 loads an f64 at addr+offset.
func LoadF64(addr Expr, offset uint32) Expr { return load(addr, wasm.OpF64Load, offset, wasm.F64) }

// LoadU8 loads a byte zero-extended to i32.
func LoadU8(addr Expr, offset uint32) Expr { return load(addr, wasm.OpI32Load8U, offset, wasm.I32) }

// LoadI8 loads a byte sign-extended to i32.
func LoadI8(addr Expr, offset uint32) Expr { return load(addr, wasm.OpI32Load8S, offset, wasm.I32) }

// LoadU16 loads 16 bits zero-extended to i32.
func LoadU16(addr Expr, offset uint32) Expr { return load(addr, wasm.OpI32Load16U, offset, wasm.I32) }

// callExpr calls a single-result function.
type callExpr struct {
	f    *Func
	args []Expr
}

func (x callExpr) Type() wasm.ValueType { return x.f.typ.Results[0] }
func (x callExpr) emit(e *emitter) {
	for _, a := range x.args {
		a.emit(e)
	}
	e.opA(wasm.OpCall, uint64(x.f.index))
}

// Call calls a function that returns exactly one value.
func Call(f *Func, args ...Expr) Expr {
	if len(f.typ.Results) != 1 {
		panic(fmt.Sprintf("wasmgen: Call(%s): function has %d results, want 1", f.name, len(f.typ.Results)))
	}
	checkArgs(f, args)
	return callExpr{f, args}
}

func checkArgs(f *Func, args []Expr) {
	if len(args) != len(f.typ.Params) {
		panic(fmt.Sprintf("wasmgen: call to %s: %d args, want %d", f.name, len(args), len(f.typ.Params)))
	}
	for i, a := range args {
		if a.Type() != f.typ.Params[i] {
			panic(fmt.Sprintf("wasmgen: call to %s: arg %d has type %s, want %s",
				f.name, i, a.Type(), f.typ.Params[i]))
		}
	}
}

// callIndirectExpr calls through the table.
type callIndirectExpr struct {
	mb    *ModuleBuilder
	ft    wasm.FuncType
	index Expr
	args  []Expr
}

func (x callIndirectExpr) Type() wasm.ValueType { return x.ft.Results[0] }
func (x callIndirectExpr) emit(e *emitter) {
	for _, a := range x.args {
		a.emit(e)
	}
	x.index.emit(e)
	e.opA(wasm.OpCallIndirect, uint64(x.mb.typeIndex(x.ft)))
}

// CallIndirect calls table slot index with the signature of proto,
// which must return exactly one value.
func CallIndirect(proto *Func, index Expr, args ...Expr) Expr {
	if len(proto.typ.Results) != 1 {
		panic("wasmgen: CallIndirect requires a single-result signature")
	}
	mustType("call_indirect index", index, wasm.I32)
	checkArgs(proto, args)
	return callIndirectExpr{proto.mb, proto.typ, index, args}
}

// memSizeExpr is memory.size.
type memSizeExpr struct{}

func (memSizeExpr) Type() wasm.ValueType { return wasm.I32 }
func (memSizeExpr) emit(e *emitter)      { e.op(wasm.OpMemorySize) }

// MemSize returns the current memory size in pages.
func MemSize() Expr { return memSizeExpr{} }

// memGrowExpr is memory.grow.
type memGrowExpr struct{ pages Expr }

func (memGrowExpr) Type() wasm.ValueType { return wasm.I32 }
func (x memGrowExpr) emit(e *emitter) {
	x.pages.emit(e)
	e.op(wasm.OpMemoryGrow)
}

// MemGrow grows memory by the given number of pages, returning the
// previous size or -1.
func MemGrow(pages Expr) Expr {
	mustType("memory.grow", pages, wasm.I32)
	return memGrowExpr{pages}
}
