package wasm_test

import (
	"bytes"
	"reflect"
	"testing"

	"leapsandbounds/internal/wasm"
	"leapsandbounds/internal/workloads"
)

// TestRoundtripWorkloads encodes every workload module and decodes
// it back, requiring structural equality — the broadest codec test
// available, since the workloads exercise most of the instruction
// set.
func TestRoundtripWorkloads(t *testing.T) {
	for _, spec := range workloads.All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			m, _ := spec.Build(workloads.Test)
			bin, err := wasm.Encode(m)
			if err != nil {
				t.Fatal(err)
			}
			m2, err := wasm.Decode(bin)
			if err != nil {
				t.Fatal(err)
			}
			bin2, err := wasm.Encode(m2)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(bin, bin2) {
				t.Error("encode->decode->encode is not a fixed point")
			}
			if !reflect.DeepEqual(normalize(m), normalize(m2)) {
				t.Error("decoded module differs structurally")
			}
		})
	}
}

// normalize clears fields the codec legitimately canonicalizes.
func normalize(m *wasm.Module) *wasm.Module {
	cp := *m
	return &cp
}

func TestDecodeRejectsMalformed(t *testing.T) {
	valid := func() []byte {
		m, _ := workloadModule()
		bin, err := wasm.Encode(m)
		if err != nil {
			panic(err)
		}
		return bin
	}()

	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"empty", func(b []byte) []byte { return nil }},
		{"bad magic", func(b []byte) []byte {
			c := clone(b)
			c[0] = 'X'
			return c
		}},
		{"bad version", func(b []byte) []byte {
			c := clone(b)
			c[4] = 9
			return c
		}},
		{"truncated", func(b []byte) []byte { return b[:len(b)/2] }},
		{"trailing garbage section", func(b []byte) []byte {
			return append(clone(b), 0x63, 0x05, 1, 2, 3)
		}},
		{"oversized body size", func([]byte) []byte { return oversizedBodyModule }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := wasm.Decode(c.mutate(valid)); err == nil {
				t.Error("expected decode error")
			}
		})
	}
}

// oversizedBodyModule declares one function whose body-size prefix
// claims 4 GiB while two bytes follow: the decoder must size what it
// allocates by the bytes present, not by the prefix.
var oversizedBodyModule = []byte{
	0x00, 0x61, 0x73, 0x6d, 0x01, 0x00, 0x00, 0x00,
	0x01, 0x04, 0x01, 0x60, 0x00, 0x00, // type: () -> ()
	0x03, 0x02, 0x01, 0x00, // function 0 : type 0
	0x0a, 0x08, 0x01, // code: one body
	0xf0, 0xff, 0xff, 0xff, 0x0f, // body size 0xfffffff0
	0x00, 0x0b, // no locals; end
}

// TestDecodeTruncationSweep truncates a real module at every length.
// Decode must never panic; prefixes that end exactly on a section
// boundary are legitimately valid (smaller) modules, every other
// prefix must fail. The code section is where function-count /
// body-count consistency is enforced, so prefixes cutting it off
// must error.
func TestDecodeTruncationSweep(t *testing.T) {
	m, _ := workloadModule()
	bin, err := wasm.Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	valid := 0
	for n := 0; n < len(bin); n++ {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Decode panicked on %d-byte prefix: %v", n, r)
				}
			}()
			if _, err := wasm.Decode(bin[:n]); err == nil {
				valid++
			}
		}()
	}
	// Only the empty module (magic+version) and at most a handful of
	// early boundaries can be valid; a module with functions cannot
	// be valid without its code section.
	if valid > 4 {
		t.Errorf("%d truncated prefixes decoded successfully", valid)
	}
}

// TestDecodeByteFlips flips each byte of a module; decoding must
// never panic (errors are fine, and some flips remain valid).
func TestDecodeByteFlips(t *testing.T) {
	m, _ := workloadModule()
	bin, err := wasm.Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	for i := 8; i < len(bin); i++ { // keep the preamble
		c := clone(bin)
		c[i] ^= 0xff
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Decode panicked with byte %d flipped: %v", i, r)
				}
			}()
			_, _ = wasm.Decode(c)
		}()
	}
}

func workloadModule() (*wasm.Module, func() uint64) {
	spec, err := workloads.ByName("gemm")
	if err != nil {
		panic(err)
	}
	return spec.Build(workloads.Test)
}

func clone(b []byte) []byte {
	c := make([]byte, len(b))
	copy(c, b)
	return c
}

func TestSectionOrderEnforced(t *testing.T) {
	m, _ := workloadModule()
	bin, err := wasm.Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	// Append a duplicate (out-of-order) type section at the end.
	dup := append(clone(bin), 0x01, 0x01, 0x00)
	if _, err := wasm.Decode(dup); err == nil {
		t.Error("out-of-order section accepted")
	}
}

func TestFuncNamesSurvive(t *testing.T) {
	m, _ := workloadModule()
	bin, err := wasm.Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := wasm.Decode(bin)
	if err != nil {
		t.Fatal(err)
	}
	if len(m2.FuncNames) == 0 {
		t.Fatal("name section lost")
	}
	idx, ok := m2.ExportedFunc(workloads.Entry)
	if !ok {
		t.Fatal("entry export lost")
	}
	if m2.FuncNames[idx] != workloads.Entry {
		t.Errorf("entry name %q", m2.FuncNames[idx])
	}
}
