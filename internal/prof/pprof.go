// pprof-protobuf export. The pprof profile.proto schema is encoded
// by hand (varint + length-delimited fields only; the repo takes no
// dependency on a protobuf library): each profile row becomes one
// sample with a two-frame stack — the opcode class (leaf) under the
// wasm function — and string labels for strategy/engine, with two
// values: raw sample count and estimated self time in nanoseconds
// (count * 1e9/Hz).
package prof

import (
	"compress/gzip"
	"io"
)

// protobuf wire types.
const (
	wireVarint = 0
	wireBytes  = 2
)

type protoBuf struct{ b []byte }

func (p *protoBuf) varint(v uint64) {
	for v >= 0x80 {
		p.b = append(p.b, byte(v)|0x80)
		v >>= 7
	}
	p.b = append(p.b, byte(v))
}

func (p *protoBuf) tag(field, wire int) { p.varint(uint64(field<<3 | wire)) }

func (p *protoBuf) uint64Field(field int, v uint64) {
	if v == 0 {
		return
	}
	p.tag(field, wireVarint)
	p.varint(v)
}

func (p *protoBuf) int64Field(field int, v int64) { p.uint64Field(field, uint64(v)) }

func (p *protoBuf) bytesField(field int, b []byte) {
	p.tag(field, wireBytes)
	p.varint(uint64(len(b)))
	p.b = append(p.b, b...)
}

func (p *protoBuf) stringField(field int, s string) {
	p.tag(field, wireBytes)
	p.varint(uint64(len(s)))
	p.b = append(p.b, s...)
}

// stringTable interns strings into the profile's string_table.
type stringTable struct {
	idx  map[string]int64
	list []string
}

func newStringTable() *stringTable {
	// Index 0 must be the empty string.
	return &stringTable{idx: map[string]int64{"": 0}, list: []string{""}}
}

func (st *stringTable) id(s string) int64 {
	if i, ok := st.idx[s]; ok {
		return i
	}
	i := int64(len(st.list))
	st.idx[s] = i
	st.list = append(st.list, s)
	return i
}

// valueType encodes a profile.proto ValueType{type, unit}.
func valueType(typ, unit int64) []byte {
	var vt protoBuf
	vt.int64Field(1, typ)
	vt.int64Field(2, unit)
	return vt.b
}

// WritePprof writes the profile in gzipped pprof protobuf format
// (what `go tool pprof` and the /debug/pprof endpoints speak).
func (pr *Profile) WritePprof(w io.Writer) error {
	st := newStringTable()
	var out protoBuf

	// sample_type: [samples/count, time/nanoseconds].
	out.bytesField(1, valueType(st.id("samples"), st.id("count")))
	out.bytesField(1, valueType(st.id("time"), st.id("nanoseconds")))

	hz := pr.Hz
	if hz <= 0 {
		hz = DefaultHz
	}
	periodNs := int64(1e9) / int64(hz)

	// Functions and locations: one function per distinct frame
	// string, one location per function, ids are 1-based.
	funcID := map[string]uint64{}
	var funcs, locs protoBuf
	location := func(name string) uint64 {
		if id, ok := funcID[name]; ok {
			return id
		}
		id := uint64(len(funcID) + 1)
		funcID[name] = id

		var fn protoBuf
		fn.uint64Field(1, id)
		fn.int64Field(2, st.id(name))
		fn.int64Field(3, st.id(name))
		fn.int64Field(4, st.id("wasm"))
		funcs.bytesField(5, fn.b)

		var line protoBuf
		line.uint64Field(1, id)
		var loc protoBuf
		loc.uint64Field(1, id)
		loc.bytesField(4, line.b)
		locs.bytesField(4, loc.b)
		return id
	}

	label := func(k, v string) []byte {
		var lb protoBuf
		lb.int64Field(1, st.id(k))
		lb.int64Field(2, st.id(v))
		return lb.b
	}

	for i := range pr.Rows {
		r := &pr.Rows[i]
		cls := r.Class
		switch {
		case r.Checked:
			cls += "!check"
		case r.Elided:
			cls += "~elided"
		}
		leaf := location(cls)
		fn := location(r.Func)

		var sm protoBuf
		// location_id: leaf first.
		sm.uint64Field(1, leaf)
		sm.uint64Field(1, fn)
		// values: count, estimated self nanoseconds.
		sm.tag(2, wireVarint)
		sm.varint(uint64(r.Count))
		sm.tag(2, wireVarint)
		sm.varint(uint64(r.Count * periodNs))
		sm.bytesField(3, label("strategy", r.Strategy))
		if r.Engine != "" {
			sm.bytesField(3, label("engine", r.Engine))
		}
		out.bytesField(2, sm.b)
	}

	out.b = append(out.b, locs.b...)
	out.b = append(out.b, funcs.b...)
	for _, s := range st.list {
		out.stringField(6, s)
	}
	// period_type + period document the sampling rate.
	out.bytesField(11, valueType(st.id("time"), st.id("nanoseconds")))
	out.int64Field(12, periodNs)

	gz := gzip.NewWriter(w)
	if _, err := gz.Write(out.b); err != nil {
		return err
	}
	return gz.Close()
}
