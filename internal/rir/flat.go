package rir

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"leapsandbounds/internal/flatten"
	"leapsandbounds/internal/wasm"
)

// A Func laid flat is one []Inst stream: the ops, then one record per
// cold-table entry in table order, then an end record holding the op
// count. A stream without an end record is all ops, with no cold
// payload. A hot op holds no pointer, so the stream is plain data, and
// it is the one serialized form of a Func: the compiled engines write
// it to disk as their artifact, one fixed-width little-endian record
// per Inst (AppendFlat, ReadFlat), and the []Inst entry points run one
// pass at a time over it in memory, for callers that time each pass on
// its own (the benchmark's layer probes).

// Record kinds, in the Shape of a record past the ops.
const (
	recCarry  Shape = 0x80 + iota // A: Src, Dst: Dst
	recCall                       // Imm: Fidx, A: ArgBase, B: NArgs, Dst: Results
	recTable                      // A: CarrySrc, B: target count; one recTarget each follows
	recTarget                     // Tgt, Dst: PopTo, B: Arity
	recC                          // A: the slot
	recImmB                       // Imm
	recAddr                       // A: X, B: Y, Imm: CX | CY<<32, Off: K
	recPair                       // the two halves follow as they are
	recEnd                        // Dst: the op count
)

// Build is BuildFunc laid flat.
func Build(ff *flatten.Func) ([]Inst, error) {
	f, err := BuildFunc(ff, nil)
	if err != nil {
		return nil, err
	}
	return f.flat(nil), nil
}

// Optimize is Func.Optimize over a flat stream, which it consumes; it
// counts its fused compare+branch pairs (RecordOptimize).
func Optimize(ir []Inst, numLocals int) []Inst {
	f := must(unflat(ir))
	f.NumLocals = numLocals
	RecordOptimize(f.Optimize(nil))
	return f.flat(ir)
}

// Compact is Func.Compact over a flat stream, which it consumes.
func Compact(ir []Inst) []Inst {
	f := must(unflat(ir))
	f.Compact(nil)
	return f.flat(ir)
}

// Lower is Func.Lower over a flat stream, which it consumes.
func Lower(ir []Inst, numLocals int) ([]Inst, int) {
	f := must(unflat(ir))
	f.NumLocals = numLocals
	regs := f.Lower(nil)
	return f.flat(ir), regs
}

// FuseMem is Func.FuseMem over a flat stream, which it consumes.
func FuseMem(ir []Inst) ([]Inst, int) {
	f := must(unflat(ir))
	n := f.FuseMem(nil)
	return f.flat(ir), n
}

// must returns what unflat read of a stream the entry points, which
// read only streams flat wrote, were handed.
func must(f *Func, err error) *Func {
	if err != nil {
		panic(err)
	}
	return f
}

// flat lays f out as one stream: in place behind f's ops when they are
// the start of from and the records fit in its capacity (what unflat
// read from from is in f's tables by then), in a new array otherwise.
// A range check has no flat form, though its plan is plain data: the
// artifact is pre-elision on purpose, so an unchecked access comes from
// the elision pass and never from a file (ReadFlat refuses one). The
// passes that have one (Build to FuseMem) make none.
func (f *Func) flat(from []Inst) []Inst {
	if len(f.checks) > 0 {
		panic("rir: a range check's plan has no flat form")
	}
	n := len(f.Code) + len(f.carries) + len(f.calls) + len(f.tables) + len(f.cs) + len(f.immBs) + len(f.addrs) + 3*len(f.pairs) + 1
	for _, t := range f.tables {
		n += len(t.Targets)
	}
	var out []Inst
	if len(f.Code) > 0 && len(from) > 0 && &f.Code[0] == &from[0] && n <= cap(from) {
		out = from[:len(f.Code)]
	} else {
		out = append(make([]Inst, 0, n), f.Code...)
	}
	for _, c := range f.carries {
		out = append(out, Inst{Shape: recCarry, A: c.Src, Dst: c.Dst})
	}
	for _, c := range f.calls {
		out = append(out, Inst{Shape: recCall, Imm: uint64(c.Fidx), A: c.ArgBase, B: int32(c.NArgs), Dst: int32(c.Results)})
	}
	for _, t := range f.tables {
		out = append(out, Inst{Shape: recTable, A: t.CarrySrc, B: int32(len(t.Targets))})
		for _, bt := range t.Targets {
			out = append(out, Inst{Shape: recTarget, Tgt: bt.Tgt, Dst: bt.PopTo, B: int32(bt.Arity)})
		}
	}
	for _, c := range f.cs {
		out = append(out, Inst{Shape: recC, A: c})
	}
	for _, v := range f.immBs {
		out = append(out, Inst{Shape: recImmB, Imm: v})
	}
	for _, l := range f.addrs {
		out = append(out, Inst{Shape: recAddr, A: int32(l.X), B: int32(l.Y), Imm: uint64(l.CX) | uint64(l.CY)<<32, Off: uint64(l.K)})
	}
	for _, p := range f.pairs {
		out = append(out, Inst{Shape: recPair}, p[0], p[1])
	}
	return append(out, Inst{Shape: recEnd, Dst: int32(len(f.Code))})
}

// errFrame is a stream whose records do not add up: an op count past
// its end, a record of no kind, a table or pair cut short.
var errFrame = errors.New("rir: malformed flat stream")

// unflat reads a flat stream back into a Func whose ops are the
// stream's own. It checks that the records add up, not what the ops
// say (ReadFlat does that).
func unflat(ir []Inst) (*Func, error) {
	end := len(ir) - 1
	if end < 0 || ir[end].Shape != recEnd {
		return &Func{Code: ir}, nil
	}
	n := int(ir[end].Dst)
	if n < 0 || n > end {
		return nil, errFrame
	}
	f := &Func{Code: ir[:n:n]}
	for i := n; i < end; i++ {
		r := &ir[i]
		switch r.Shape {
		case recCarry:
			f.carries = append(f.carries, Carry{r.A, r.Dst})
		case recCall:
			f.calls = append(f.calls, Call{Fidx: uint32(r.Imm), ArgBase: r.A, NArgs: int8(r.B), Results: int8(r.Dst)})
		case recTable:
			if r.B < 0 || int(r.B) >= end-i {
				return nil, errFrame
			}
			t := BrTable{CarrySrc: r.A, Targets: make([]flatten.BranchTarget, r.B)}
			for k := range t.Targets {
				i++
				if ir[i].Shape != recTarget {
					return nil, errFrame
				}
				t.Targets[k] = flatten.BranchTarget{Tgt: ir[i].Tgt, PopTo: ir[i].Dst, Arity: int8(ir[i].B)}
			}
			f.tables = append(f.tables, t)
		case recC:
			f.cs = append(f.cs, r.A)
		case recImmB:
			f.immBs = append(f.immBs, r.Imm)
		case recAddr:
			f.addrs = append(f.addrs, Lin{X: int(r.A), Y: int(r.B), CX: uint32(r.Imm), CY: uint32(r.Imm >> 32), K: uint32(r.Off)})
		case recPair:
			if i+2 >= end {
				return nil, errFrame
			}
			f.pairs = append(f.pairs, [2]Inst{ir[i+1], ir[i+2]})
			i += 2
		default:
			return nil, errFrame
		}
	}
	return f, nil
}

// instBytes is one record's size in bytes: Inst's fields in declaration
// order, each little-endian at its own width, with no padding.
const instBytes = 8 + 8 + 6*4 + 6

// AppendFlat appends f, laid flat, to b: the record count, then each
// record in instBytes.
func (f *Func) AppendFlat(b []byte) []byte {
	ir := f.flat(nil)
	le := binary.LittleEndian
	b = le.AppendUint32(slices.Grow(b, 4+len(ir)*instBytes), uint32(len(ir)))
	for i := range ir {
		s := &ir[i]
		b = le.AppendUint64(b, s.Imm)
		b = le.AppendUint64(b, s.Off)
		for _, v := range [...]int32{s.Dst, s.A, s.B, s.Tgt, s.Else, s.Side} {
			b = le.AppendUint32(b, uint32(v))
		}
		b = append(b, byte(s.Op), byte(s.CmpOp), s.Sub, byte(s.Shape), s.Class, byte(s.Flags))
	}
	return b
}

// ReadFlat reads the function AppendFlat wrote at the start of b, whose
// slots lie in a frame of frame slots, and returns it with the bytes
// after it; the Func's NumLocals is the caller's to set. It reads the
// IR as the front half of a compile leaves it, before elision and
// address folding: a folded address, a range check, a fused pair, a
// two-target branch or an unchecked access is an error. So is any index the bytes give that
// does not land: a count past the bytes there are, a Side outside the
// table its op's Shape names, a branch target outside the function, a
// slot outside the frame.
func ReadFlat(b []byte, frame int) (*Func, []byte, error) {
	le := binary.LittleEndian
	if len(b) < 4 || uint64(le.Uint32(b))*instBytes > uint64(len(b)-4) {
		return nil, nil, errFrame
	}
	ir := make([]Inst, le.Uint32(b))
	b = b[4:]
	for i := range ir {
		s := &ir[i]
		s.Imm, s.Off = le.Uint64(b), le.Uint64(b[8:])
		for k, p := range [...]*int32{&s.Dst, &s.A, &s.B, &s.Tgt, &s.Else, &s.Side} {
			*p = int32(le.Uint32(b[16+4*k:]))
		}
		r := b[40:instBytes]
		s.Op, s.CmpOp, s.Sub = wasm.Opcode(r[0]), wasm.Opcode(r[1]), r[2]
		s.Shape, s.Class, s.Flags = Shape(r[3]), r[4], Flags(r[5])
		b = b[instBytes:]
	}
	f, err := unflat(ir)
	if err != nil {
		return nil, nil, err
	}
	if len(f.addrs) > 0 || len(f.pairs) > 0 {
		return nil, nil, errors.New("rir: flat stream carries post-elision state")
	}
	for pc := range f.Code {
		if err := f.checkPreElision(&f.Code[pc], frame); err != nil {
			return nil, nil, fmt.Errorf("rir: op %d: %w", pc, err)
		}
	}
	return f, b, nil
}

// checkPreElision checks one op of a stream ReadFlat read: a Shape and
// Flags the front half makes, a Side inside the table the Shape names
// (or 0 where it names none), branch targets inside the function and
// slots inside the frame.
func (f *Func) checkPreElision(s *Inst, frame int) error {
	if s.Shape >= ShRangeCheck || s.Has(Unchecked) || s.Has(HasElse) {
		return fmt.Errorf("shape %d, flags %#x: post-elision state", s.Shape, s.Flags)
	}
	lo, hi := int32(0), 0
	switch s.Shape {
	case ShJump, ShBranchIf, ShReturn:
		hi = len(f.carries)
	case ShCall, ShCallInd:
		lo, hi = 1, len(f.calls)
	case ShBrTable:
		lo, hi = 1, len(f.tables)
	case ShSelect, ShMemCopy, ShMemFill:
		lo, hi = 1, len(f.cs)
	case ShBin, ShCmpBranch:
		if s.immA() && s.Has(BImm) {
			lo, hi = 1, len(f.immBs)
		}
	}
	if s.Side < lo || int(s.Side) > hi {
		return fmt.Errorf("shape %d: cold index %d outside [%d, %d]", s.Shape, s.Side, lo, hi)
	}
	below := func(v int32, n int) bool { return v >= 0 && int(v) < n }
	slots, tgts := true, true
	f.visitSlots(s, func(p *int32) { slots = slots && below(*p, frame) })
	switch s.Shape {
	case ShCall, ShCallInd:
		slots = slots && below(f.Call(s).ArgBase, frame)
	case ShJump, ShIfFalse, ShBranchIf, ShCmpBranch:
		tgts = below(s.Tgt, len(f.Code))
	case ShBrTable:
		for _, bt := range f.Table(s).Targets {
			tgts = tgts && below(bt.Tgt, len(f.Code))
		}
	}
	if !slots {
		return fmt.Errorf("shape %d: a slot outside the frame of %d", s.Shape, frame)
	}
	if !tgts {
		return fmt.Errorf("shape %d: a branch target outside the function", s.Shape)
	}
	return nil
}
