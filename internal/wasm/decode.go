package wasm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"leapsandbounds/internal/fanout"
)

// Magic and Version are the WebAssembly binary preamble values.
var (
	Magic   = []byte{0x00, 0x61, 0x73, 0x6d}
	Version = []byte{0x01, 0x00, 0x00, 0x00}
)

// errMalformed wraps all structural decoding failures.
var errMalformed = errors.New("wasm: malformed module")

type decoder struct {
	buf []byte
	pos int
}

func (d *decoder) failf(format string, args ...any) error {
	return fmt.Errorf("%w: offset %d: %s", errMalformed, d.pos, fmt.Sprintf(format, args...))
}

func (d *decoder) remaining() int { return len(d.buf) - d.pos }

func (d *decoder) bytes(n int) ([]byte, error) {
	if n < 0 || d.remaining() < n {
		return nil, d.failf("need %d bytes, have %d", n, d.remaining())
	}
	b := d.buf[d.pos : d.pos+n]
	d.pos += n
	return b, nil
}

func (d *decoder) byteVal() (byte, error) {
	if d.remaining() < 1 {
		return 0, d.failf("unexpected end")
	}
	b := d.buf[d.pos]
	d.pos++
	return b, nil
}

func (d *decoder) u32() (uint32, error) {
	v, n, err := Uleb128(d.buf[d.pos:], 32)
	if err != nil {
		return 0, d.failf("%v", err)
	}
	d.pos += n
	return uint32(v), nil
}

func (d *decoder) s32() (int32, error) {
	v, n, err := Sleb128(d.buf[d.pos:], 32)
	if err != nil {
		return 0, d.failf("%v", err)
	}
	d.pos += n
	return int32(v), nil
}

func (d *decoder) s64() (int64, error) {
	v, n, err := Sleb128(d.buf[d.pos:], 64)
	if err != nil {
		return 0, d.failf("%v", err)
	}
	d.pos += n
	return v, nil
}

func (d *decoder) f32bits() (uint32, error) {
	b, err := d.bytes(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (d *decoder) f64bits() (uint64, error) {
	b, err := d.bytes(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

func (d *decoder) name() (string, error) {
	n, err := d.u32()
	if err != nil {
		return "", err
	}
	b, err := d.bytes(int(n))
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// vecLen reads a vector's declared element count and returns, beside
// it, how many elements to allocate room for: the count bounded by the
// bytes left in the section. Every element of every vector takes at
// least one byte, so a count beyond that cannot be met — the element
// loop runs into the end of the section and reports it — and what is
// allocated follows the bytes present, never a number the input merely
// declares.
func (d *decoder) vecLen() (n uint32, room int, err error) {
	if n, err = d.u32(); err != nil {
		return 0, 0, err
	}
	return n, int(min(uint64(n), uint64(d.remaining()))), nil
}

func (d *decoder) valueType() (ValueType, error) {
	b, err := d.byteVal()
	if err != nil {
		return 0, err
	}
	t := ValueType(b)
	if !t.Valid() {
		return 0, d.failf("invalid value type 0x%02x", b)
	}
	return t, nil
}

func (d *decoder) limits(ceil uint32) (Limits, error) {
	flag, err := d.byteVal()
	if err != nil {
		return Limits{}, err
	}
	if flag > 1 {
		return Limits{}, d.failf("invalid limits flag 0x%02x", flag)
	}
	min, err := d.u32()
	if err != nil {
		return Limits{}, err
	}
	l := Limits{Min: min}
	if flag == 1 {
		max, err := d.u32()
		if err != nil {
			return Limits{}, err
		}
		l.Max = max
		l.HasMax = true
	}
	if !l.Valid(ceil) {
		return Limits{}, d.failf("limits out of range: min=%d max=%d hasMax=%v", l.Min, l.Max, l.HasMax)
	}
	return l, nil
}

func (d *decoder) constExpr() (ConstExpr, error) {
	op, err := d.byteVal()
	if err != nil {
		return ConstExpr{}, err
	}
	var e ConstExpr
	e.Op = Opcode(op)
	switch e.Op {
	case OpI32Const:
		v, err := d.s32()
		if err != nil {
			return e, err
		}
		e.Value = uint64(uint32(v))
	case OpI64Const:
		v, err := d.s64()
		if err != nil {
			return e, err
		}
		e.Value = uint64(v)
	case OpF32Const:
		v, err := d.f32bits()
		if err != nil {
			return e, err
		}
		e.Value = uint64(v)
	case OpF64Const:
		v, err := d.f64bits()
		if err != nil {
			return e, err
		}
		e.Value = v
	case OpGlobalGet:
		v, err := d.u32()
		if err != nil {
			return e, err
		}
		e.Value = uint64(v)
	default:
		return e, d.failf("unsupported constant opcode %s", e.Op)
	}
	end, err := d.byteVal()
	if err != nil {
		return e, err
	}
	if Opcode(end) != OpEnd {
		return e, d.failf("constant expression not terminated by end")
	}
	return e, nil
}

// Decode parses a WebAssembly binary module. It performs structural
// (grammar-level) validation only; use the validate package for full
// type checking.
func Decode(data []byte) (*Module, error) {
	d := &decoder{buf: data}
	magic, err := d.bytes(4)
	if err != nil {
		return nil, err
	}
	if string(magic) != string(Magic) {
		return nil, d.failf("bad magic")
	}
	version, err := d.bytes(4)
	if err != nil {
		return nil, err
	}
	if string(version) != string(Version) {
		return nil, d.failf("unsupported version")
	}

	m := &Module{}
	lastSection := -1
	for d.remaining() > 0 {
		id, err := d.byteVal()
		if err != nil {
			return nil, err
		}
		size, err := d.u32()
		if err != nil {
			return nil, err
		}
		body, err := d.bytes(int(size))
		if err != nil {
			return nil, err
		}
		if id != 0 {
			if int(id) <= lastSection {
				return nil, d.failf("section %d out of order", id)
			}
			lastSection = int(id)
		}
		sd := &decoder{buf: body}
		switch id {
		case 0: // custom
			if err := decodeCustom(sd, m); err != nil {
				return nil, err
			}
		case 1:
			err = decodeTypes(sd, m)
		case 2:
			err = decodeImports(sd, m)
		case 3:
			err = decodeFuncs(sd, m)
		case 4:
			err = decodeTables(sd, m)
		case 5:
			err = decodeMems(sd, m)
		case 6:
			err = decodeGlobals(sd, m)
		case 7:
			err = decodeExports(sd, m)
		case 8:
			v, err2 := sd.u32()
			if err2 != nil {
				return nil, err2
			}
			m.Start = &v
		case 9:
			err = decodeElems(sd, m)
		case 10:
			err = decodeCode(sd, m)
		case 11:
			err = decodeData(sd, m)
		default:
			return nil, d.failf("unknown section id %d", id)
		}
		if err != nil {
			return nil, err
		}
		if id != 0 && sd.remaining() != 0 {
			return nil, d.failf("section %d has %d trailing bytes", id, sd.remaining())
		}
	}
	if len(m.Funcs) != len(m.Code) {
		return nil, fmt.Errorf("%w: function section declares %d functions but code section has %d bodies",
			errMalformed, len(m.Funcs), len(m.Code))
	}
	return m, nil
}

func decodeCustom(d *decoder, m *Module) error {
	name, err := d.name()
	if err != nil {
		return nil // tolerate malformed custom sections
	}
	if name != "name" {
		return nil
	}
	// Parse the function-name subsection if present.
	for d.remaining() > 0 {
		id, err := d.byteVal()
		if err != nil {
			return nil
		}
		size, err := d.u32()
		if err != nil {
			return nil
		}
		body, err := d.bytes(int(size))
		if err != nil {
			return nil
		}
		if id != 1 {
			continue
		}
		sd := &decoder{buf: body}
		n, room, err := sd.vecLen()
		if err != nil {
			return nil
		}
		names := make(map[uint32]string, room)
		for i := uint32(0); i < n; i++ {
			idx, err := sd.u32()
			if err != nil {
				return nil
			}
			fn, err := sd.name()
			if err != nil {
				return nil
			}
			names[idx] = fn
		}
		m.FuncNames = names
	}
	return nil
}

func decodeTypes(d *decoder, m *Module) error {
	n, room, err := d.vecLen()
	if err != nil {
		return err
	}
	m.Types = make([]FuncType, 0, room)
	for i := uint32(0); i < n; i++ {
		form, err := d.byteVal()
		if err != nil {
			return err
		}
		if form != 0x60 {
			return d.failf("type %d: expected func form 0x60, got 0x%02x", i, form)
		}
		np, err := d.u32()
		if err != nil {
			return err
		}
		ft := FuncType{}
		for j := uint32(0); j < np; j++ {
			t, err := d.valueType()
			if err != nil {
				return err
			}
			ft.Params = append(ft.Params, t)
		}
		nr, err := d.u32()
		if err != nil {
			return err
		}
		if nr > 1 {
			return d.failf("type %d: multi-value results not supported", i)
		}
		for j := uint32(0); j < nr; j++ {
			t, err := d.valueType()
			if err != nil {
				return err
			}
			ft.Results = append(ft.Results, t)
		}
		m.Types = append(m.Types, ft)
	}
	return nil
}

func decodeImports(d *decoder, m *Module) error {
	n, room, err := d.vecLen()
	if err != nil {
		return err
	}
	m.Imports = make([]Import, 0, room)
	for i := uint32(0); i < n; i++ {
		mod, err := d.name()
		if err != nil {
			return err
		}
		name, err := d.name()
		if err != nil {
			return err
		}
		kind, err := d.byteVal()
		if err != nil {
			return err
		}
		im := Import{Module: mod, Name: name, Kind: ExternKind(kind)}
		switch im.Kind {
		case ExternFunc:
			ti, err := d.u32()
			if err != nil {
				return err
			}
			im.Func = ti
		case ExternTable:
			et, err := d.byteVal()
			if err != nil {
				return err
			}
			if ValueType(et) != Funcref {
				return d.failf("import %d: table element type must be funcref", i)
			}
			lim, err := d.limits(math.MaxUint32)
			if err != nil {
				return err
			}
			im.Table = TableType{Elem: Funcref, Limits: lim}
		case ExternMemory:
			lim, err := d.limits(MaxPages)
			if err != nil {
				return err
			}
			im.Memory = MemoryType{Limits: lim}
		case ExternGlobal:
			t, err := d.valueType()
			if err != nil {
				return err
			}
			mut, err := d.byteVal()
			if err != nil {
				return err
			}
			if mut > 1 {
				return d.failf("import %d: invalid mutability %d", i, mut)
			}
			im.Global = GlobalType{Type: t, Mutable: mut == 1}
		default:
			return d.failf("import %d: unknown kind 0x%02x", i, kind)
		}
		m.Imports = append(m.Imports, im)
	}
	return nil
}

func decodeFuncs(d *decoder, m *Module) error {
	n, room, err := d.vecLen()
	if err != nil {
		return err
	}
	m.Funcs = make([]uint32, 0, room)
	for i := uint32(0); i < n; i++ {
		ti, err := d.u32()
		if err != nil {
			return err
		}
		m.Funcs = append(m.Funcs, ti)
	}
	return nil
}

func decodeTables(d *decoder, m *Module) error {
	n, err := d.u32()
	if err != nil {
		return err
	}
	for i := uint32(0); i < n; i++ {
		et, err := d.byteVal()
		if err != nil {
			return err
		}
		if ValueType(et) != Funcref {
			return d.failf("table %d: element type must be funcref", i)
		}
		lim, err := d.limits(math.MaxUint32)
		if err != nil {
			return err
		}
		m.Tables = append(m.Tables, TableType{Elem: Funcref, Limits: lim})
	}
	return nil
}

func decodeMems(d *decoder, m *Module) error {
	n, err := d.u32()
	if err != nil {
		return err
	}
	for i := uint32(0); i < n; i++ {
		lim, err := d.limits(MaxPages)
		if err != nil {
			return err
		}
		m.Mems = append(m.Mems, MemoryType{Limits: lim})
	}
	return nil
}

func decodeGlobals(d *decoder, m *Module) error {
	n, err := d.u32()
	if err != nil {
		return err
	}
	for i := uint32(0); i < n; i++ {
		t, err := d.valueType()
		if err != nil {
			return err
		}
		mut, err := d.byteVal()
		if err != nil {
			return err
		}
		if mut > 1 {
			return d.failf("global %d: invalid mutability %d", i, mut)
		}
		init, err := d.constExpr()
		if err != nil {
			return err
		}
		m.Globals = append(m.Globals, Global{
			Type: GlobalType{Type: t, Mutable: mut == 1},
			Init: init,
		})
	}
	return nil
}

func decodeExports(d *decoder, m *Module) error {
	n, room, err := d.vecLen()
	if err != nil {
		return err
	}
	seen := make(map[string]bool, room)
	for i := uint32(0); i < n; i++ {
		name, err := d.name()
		if err != nil {
			return err
		}
		if seen[name] {
			return d.failf("duplicate export %q", name)
		}
		seen[name] = true
		kind, err := d.byteVal()
		if err != nil {
			return err
		}
		idx, err := d.u32()
		if err != nil {
			return err
		}
		if ExternKind(kind) > ExternGlobal {
			return d.failf("export %q: unknown kind 0x%02x", name, kind)
		}
		m.Exports = append(m.Exports, Export{Name: name, Kind: ExternKind(kind), Index: idx})
	}
	return nil
}

func decodeElems(d *decoder, m *Module) error {
	n, err := d.u32()
	if err != nil {
		return err
	}
	for i := uint32(0); i < n; i++ {
		tbl, err := d.u32()
		if err != nil {
			return err
		}
		off, err := d.constExpr()
		if err != nil {
			return err
		}
		cnt, room, err := d.vecLen()
		if err != nil {
			return err
		}
		funcs := make([]uint32, 0, room)
		for j := uint32(0); j < cnt; j++ {
			fi, err := d.u32()
			if err != nil {
				return err
			}
			funcs = append(funcs, fi)
		}
		m.Elems = append(m.Elems, ElemSegment{Table: tbl, Offset: off, Funcs: funcs})
	}
	return nil
}

func decodeData(d *decoder, m *Module) error {
	n, err := d.u32()
	if err != nil {
		return err
	}
	for i := uint32(0); i < n; i++ {
		mem, err := d.u32()
		if err != nil {
			return err
		}
		off, err := d.constExpr()
		if err != nil {
			return err
		}
		sz, err := d.u32()
		if err != nil {
			return err
		}
		data, err := d.bytes(int(sz))
		if err != nil {
			return err
		}
		cp := make([]byte, len(data))
		copy(cp, data)
		m.Data = append(m.Data, DataSegment{Memory: mem, Offset: off, Data: cp})
	}
	return nil
}

// decodeCode cuts the section into bodies — serially, reading size
// prefixes only — and decodes the bodies on fanout's workers. The error
// is the one a single loop over the section reports, whatever the
// worker count: the lowest body that does not decode, and a size prefix
// that cannot be cut at body k only if bodies [0, k) all decode.
func decodeCode(d *decoder, m *Module) error {
	n, room, err := d.vecLen()
	if err != nil {
		return err
	}
	bodies := make([][]byte, 0, room)
	var cutErr error
	for i := uint32(0); i < n; i++ {
		size, err := d.u32()
		if err != nil {
			cutErr = err
			break
		}
		body, err := d.bytes(int(size))
		if err != nil {
			cutErr = err
			break
		}
		bodies = append(bodies, body)
	}
	code := make([]Code, len(bodies))
	_, err = fanout.Each(len(bodies), func() func(int) error {
		// One buffer per worker, reused, takes every body as it is
		// decoded; each is then copied out at its exact length.
		// Allocation follows the instructions actually decoded — never
		// a declared size or count — and no body carries spare capacity
		// for the module's lifetime.
		var scratch []Instr
		return func(i int) error {
			locals, body, err := decodeBody(i, bodies[i], scratch[:0])
			if err != nil {
				return err
			}
			scratch = body
			code[i] = Code{Locals: locals, Body: slices.Clone(body)}
			return nil
		}
	})
	if err != nil {
		return err
	}
	if cutErr != nil {
		return cutErr
	}
	m.Code = code
	return nil
}

// decodeBody decodes function body i: its local declarations, expanded,
// and its instructions, appended to out.
func decodeBody(i int, body []byte, out []Instr) ([]ValueType, []Instr, error) {
	bd := &decoder{buf: body}
	nd, err := bd.u32()
	if err != nil {
		return nil, nil, err
	}
	var locals []ValueType
	total := 0
	for j := uint32(0); j < nd; j++ {
		cnt, err := bd.u32()
		if err != nil {
			return nil, nil, err
		}
		t, err := bd.valueType()
		if err != nil {
			return nil, nil, err
		}
		total += int(cnt)
		if total > 1<<20 {
			return nil, nil, bd.failf("function %d declares too many locals", i)
		}
		for k := uint32(0); k < cnt; k++ {
			locals = append(locals, t)
		}
	}
	out, err = decodeExpr(bd, out)
	if err != nil {
		return nil, nil, fmt.Errorf("function %d: %w", i, err)
	}
	if bd.remaining() != 0 {
		return nil, nil, bd.failf("function %d: trailing bytes after body", i)
	}
	return locals, out, nil
}

// decodeExpr decodes an instruction sequence up to and including the
// matching final end, appending to out.
func decodeExpr(d *decoder, out []Instr) ([]Instr, error) {
	depth := 0
	for {
		b, err := d.byteVal()
		if err != nil {
			return nil, err
		}
		op := Opcode(b)
		in := Instr{Op: op}
		switch op {
		case OpUnreachable, OpNop, OpReturn, OpDrop, OpSelect,
			OpI32Eqz, OpI32Eq, OpI32Ne, OpI32LtS, OpI32LtU, OpI32GtS, OpI32GtU,
			OpI32LeS, OpI32LeU, OpI32GeS, OpI32GeU,
			OpI64Eqz, OpI64Eq, OpI64Ne, OpI64LtS, OpI64LtU, OpI64GtS, OpI64GtU,
			OpI64LeS, OpI64LeU, OpI64GeS, OpI64GeU,
			OpF32Eq, OpF32Ne, OpF32Lt, OpF32Gt, OpF32Le, OpF32Ge,
			OpF64Eq, OpF64Ne, OpF64Lt, OpF64Gt, OpF64Le, OpF64Ge,
			OpI32Clz, OpI32Ctz, OpI32Popcnt, OpI32Add, OpI32Sub, OpI32Mul,
			OpI32DivS, OpI32DivU, OpI32RemS, OpI32RemU, OpI32And, OpI32Or,
			OpI32Xor, OpI32Shl, OpI32ShrS, OpI32ShrU, OpI32Rotl, OpI32Rotr,
			OpI64Clz, OpI64Ctz, OpI64Popcnt, OpI64Add, OpI64Sub, OpI64Mul,
			OpI64DivS, OpI64DivU, OpI64RemS, OpI64RemU, OpI64And, OpI64Or,
			OpI64Xor, OpI64Shl, OpI64ShrS, OpI64ShrU, OpI64Rotl, OpI64Rotr,
			OpF32Abs, OpF32Neg, OpF32Ceil, OpF32Floor, OpF32Trunc, OpF32Nearest,
			OpF32Sqrt, OpF32Add, OpF32Sub, OpF32Mul, OpF32Div, OpF32Min,
			OpF32Max, OpF32Copysign,
			OpF64Abs, OpF64Neg, OpF64Ceil, OpF64Floor, OpF64Trunc, OpF64Nearest,
			OpF64Sqrt, OpF64Add, OpF64Sub, OpF64Mul, OpF64Div, OpF64Min,
			OpF64Max, OpF64Copysign,
			OpI32WrapI64, OpI32TruncF32S, OpI32TruncF32U, OpI32TruncF64S,
			OpI32TruncF64U, OpI64ExtendI32S, OpI64ExtendI32U, OpI64TruncF32S,
			OpI64TruncF32U, OpI64TruncF64S, OpI64TruncF64U, OpF32ConvertI32S,
			OpF32ConvertI32U, OpF32ConvertI64S, OpF32ConvertI64U, OpF32DemoteF64,
			OpF64ConvertI32S, OpF64ConvertI32U, OpF64ConvertI64S, OpF64ConvertI64U,
			OpF64PromoteF32, OpI32ReinterpretF32, OpI64ReinterpretF64,
			OpF32ReinterpretI32, OpF64ReinterpretI64,
			OpI32Extend8S, OpI32Extend16S, OpI64Extend8S, OpI64Extend16S, OpI64Extend32S:
			// no immediates
		case OpBlock, OpLoop, OpIf:
			bt, err := d.byteVal()
			if err != nil {
				return nil, err
			}
			if bt != BlockEmpty && !ValueType(bt).Valid() {
				return nil, d.failf("invalid block type 0x%02x", bt)
			}
			in.A = uint64(bt)
			depth++
		case OpElse:
			// structure checked by the validator
		case OpEnd:
			if depth == 0 {
				out = append(out, in)
				return out, nil
			}
			depth--
		case OpBr, OpBrIf, OpCall, OpLocalGet, OpLocalSet, OpLocalTee,
			OpGlobalGet, OpGlobalSet:
			v, err := d.u32()
			if err != nil {
				return nil, err
			}
			in.A = uint64(v)
		case OpBrTable:
			cnt, room, err := d.vecLen()
			if err != nil {
				return nil, err
			}
			if int(cnt) > room {
				return nil, d.failf("br_table target count %d too large", cnt)
			}
			targets := make([]uint32, 0, room)
			for j := uint32(0); j < cnt; j++ {
				t, err := d.u32()
				if err != nil {
					return nil, err
				}
				targets = append(targets, t)
			}
			def, err := d.u32()
			if err != nil {
				return nil, err
			}
			in.Targets = targets
			in.A = uint64(def)
		case OpCallIndirect:
			ti, err := d.u32()
			if err != nil {
				return nil, err
			}
			tbl, err := d.byteVal()
			if err != nil {
				return nil, err
			}
			if tbl != 0 {
				return nil, d.failf("call_indirect reserved byte must be 0")
			}
			in.A = uint64(ti)
		case OpMemorySize, OpMemoryGrow:
			mi, err := d.byteVal()
			if err != nil {
				return nil, err
			}
			if mi != 0 {
				return nil, d.failf("memory index must be 0")
			}
		case OpI32Const:
			v, err := d.s32()
			if err != nil {
				return nil, err
			}
			in.A = uint64(uint32(v))
		case OpI64Const:
			v, err := d.s64()
			if err != nil {
				return nil, err
			}
			in.A = uint64(v)
		case OpF32Const:
			v, err := d.f32bits()
			if err != nil {
				return nil, err
			}
			in.A = uint64(v)
		case OpF64Const:
			v, err := d.f64bits()
			if err != nil {
				return nil, err
			}
			in.A = v
		case OpPrefix:
			sub, err := d.u32()
			if err != nil {
				return nil, err
			}
			in.Sub = SubOpcode(sub)
			switch in.Sub {
			case SubI32TruncSatF32S, SubI32TruncSatF32U, SubI32TruncSatF64S,
				SubI32TruncSatF64U, SubI64TruncSatF32S, SubI64TruncSatF32U,
				SubI64TruncSatF64S, SubI64TruncSatF64U:
				// no immediates
			case SubMemoryCopy:
				a, err := d.byteVal()
				if err != nil {
					return nil, err
				}
				b, err := d.byteVal()
				if err != nil {
					return nil, err
				}
				if a != 0 || b != 0 {
					return nil, d.failf("memory.copy indices must be 0")
				}
			case SubMemoryFill:
				a, err := d.byteVal()
				if err != nil {
					return nil, err
				}
				if a != 0 {
					return nil, d.failf("memory.fill index must be 0")
				}
			default:
				return nil, d.failf("unsupported prefixed opcode %d", sub)
			}
		default:
			if op.IsLoad() || op.IsStore() {
				align, err := d.u32()
				if err != nil {
					return nil, err
				}
				offset, err := d.u32()
				if err != nil {
					return nil, err
				}
				in.A = uint64(align)
				in.B = uint64(offset)
			} else {
				return nil, d.failf("unknown opcode 0x%02x", b)
			}
		}
		out = append(out, in)
	}
}
