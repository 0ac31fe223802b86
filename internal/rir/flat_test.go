package rir

import (
	"reflect"
	"strings"
	"testing"

	"leapsandbounds/internal/flatten"
)

// TestFlatRecordHoldsEveryField: every field of Inst survives
// AppendFlat and ReadFlat, in every byte, so a field added to Inst but
// not to the records fails here. Each field is set through reflect to
// its own value with no zero byte; the ones ReadFlat checks — Shape,
// Side, Flags, Tgt — are then given values it accepts.
func TestFlatRecordHoldsEveryField(t *testing.T) {
	var s Inst
	v := reflect.ValueOf(&s).Elem()
	for i := 0; i < v.NumField(); i++ {
		x := 0x8877665544332211 + uint64(i)*0x0101010101010101
		switch f := v.Field(i); f.Kind() {
		case reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			f.SetInt(int64(x))
		case reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			f.SetUint(x)
		default:
			t.Fatalf("Inst.%s is a %s: give it a value here", v.Type().Field(i).Name, f.Kind())
		}
	}
	s.Shape, s.Side, s.Tgt = ShCall, 1, 1
	s.Flags = AImm | BImm | BrOnTrue | MemAcc | Dead
	in := &Func{Code: []Inst{s, {Shape: ShReturn}}}
	in.calls = []Call{{Fidx: 0x81828384, ArgBase: 0x71727374, NArgs: 0x61, Results: 0x51}}

	b := in.AppendFlat([]byte("head"))
	got, rest, err := ReadFlat(append(b[len("head"):], "tail"...), 0x7fffffff)
	if err != nil {
		t.Fatal(err)
	}
	if string(rest) != "tail" || !reflect.DeepEqual(got, in) {
		t.Errorf("ReadFlat(AppendFlat(f)) = %+v, rest %q; f = %+v", got, rest, in)
	}
	for n := range len(b) - len("head") {
		if _, _, err := ReadFlat(b[len("head"):len("head")+n], 0x7fffffff); err == nil {
			t.Fatalf("ReadFlat read a stream cut to %d bytes", n)
		}
	}
}

// TestReadFlatRoundTripsTheFrontHalf: what the front half of a compile
// leaves, after Lower, reads back as it was written, cold tables and
// all; after FuseMem, or with an unchecked access, a folded address or
// a two-target branch in it, ReadFlat refuses it.
func TestReadFlatRoundTripsTheFrontHalf(t *testing.T) {
	m := flatModule(t)
	for i := range m.Code {
		ff, err := flatten.Flatten(m, uint32(i), &m.Code[i])
		if err != nil {
			t.Fatal(err)
		}
		f, err := BuildFunc(ff, nil)
		if err != nil {
			t.Fatal(err)
		}
		f.Optimize(nil)
		f.Compact(nil)
		frame := f.NumLocals + f.Lower(nil)
		got, rest, err := ReadFlat(f.AppendFlat(nil), frame)
		if err != nil {
			t.Fatalf("function %d: %v", i, err)
		}
		got.NumLocals = f.NumLocals
		if len(rest) != 0 || !reflect.DeepEqual(got, f) {
			t.Errorf("function %d: read back\n%swrote\n%s", i, dump(got), dump(f))
		}

		if g := with(f, append([]Inst(nil), f.Code...)); g.FuseMem(nil) > 0 {
			if _, _, err := ReadFlat(g.AppendFlat(nil), frame); err == nil {
				t.Errorf("function %d: ReadFlat read a stream with fused pairs", i)
			}
		}
		for name, mutate := range map[string]func(g *Func){
			"two-target":     func(g *Func) { g.Code[0].Flags |= HasElse },
			"range check":    func(g *Func) { g.Code[0].Shape = ShRangeCheck },
			"unchecked":      func(g *Func) { g.Code[0].Flags |= Unchecked },
			"folded address": func(g *Func) { g.SetAddr(&g.Code[0], Lin{X: 1, CX: 8}) },
		} {
			g := with(f, append([]Inst(nil), f.Code...))
			mutate(g)
			if _, _, err := ReadFlat(g.AppendFlat(nil), frame); err == nil {
				t.Errorf("function %d: ReadFlat read a stream with a %s op", i, name)
			} else if !strings.Contains(err.Error(), "post-elision") {
				t.Errorf("function %d, %s: %v", i, name, err)
			}
		}
	}
}
