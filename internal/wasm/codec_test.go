package wasm_test

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"leapsandbounds/internal/validate"
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

// normalize clears what the codec does not carry: the validated mark
// (a built module has been validated, its re-decode has not). Every
// decoded field is compared as it is.
func normalize(m *wasm.Module) *wasm.Module { return m.Unmarked() }

// TestDecodeRejectsMalformed: each malformed input is refused with the
// one error a single loop over the module reports — bodies are decoded
// on fanout's workers, and the text must not depend on which worker
// fails first, so every case runs 100 times at one worker and at four.
// validate.Decode, which type-checks each body on the worker that
// decoded it, must refuse each with the same text: a decode error wins
// over any type error, even one in a lower body.
func TestDecodeRejectsMalformed(t *testing.T) {
	var (
		good     = []byte{0x02, 0x00, 0x0b}             // no locals; end
		illTyped = []byte{0x04, 0x00, 0x41, 0x00, 0x0b} // no locals; i32.const 0; end
		badOp    = []byte{0x02, 0x00, 0xff}             // no locals; an opcode that does not exist
		trailing = []byte{0x03, 0x00, 0x0b, 0x0b}       // a byte after the final end
		// 0xFC sub-opcode 266, which a byte would hold as 10
		// (memory.copy, whose two index bytes follow).
		wideSub = []byte{0x07, 0x00, 0xfc, 0x8a, 0x02, 0x00, 0x00, 0x0b}
	)
	// bodies is 64 bodies, good but for the two given.
	bodies := func(i int, bi []byte, j int, bj []byte) [][]byte {
		bs := make([][]byte, 64)
		for k := range bs {
			bs[k] = good
		}
		bs[i], bs[j] = bi, bj
		return bs
	}
	valid := codeModule(64, bodies(0, good, 1, good)...)
	if _, err := wasm.Decode(valid); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		in   []byte
		want string
	}{
		{"empty", nil, "wasm: malformed module: offset 0: need 4 bytes, have 0"},
		{"bad magic", func() []byte {
			c := clone(valid)
			c[0] = 'X'
			return c
		}(), "wasm: malformed module: offset 4: bad magic"},
		{"bad version", func() []byte {
			c := clone(valid)
			c[4] = 9
			return c
		}(), "wasm: malformed module: offset 8: unsupported version"},
		{"truncated", valid[:len(valid)/2], "wasm: malformed module: offset 84: need 193 bytes, have 54"},
		{"trailing garbage section", append(clone(valid), 0x63, 0x05, 1, 2, 3),
			"wasm: malformed module: offset 279: need 5 bytes, have 3"},
		{"oversized body size", oversizedBodyModule, "wasm: malformed module: offset 6: need 4294967280 bytes, have 2"},
		{"two bad bodies", codeModule(64, bodies(5, badOp, 9, trailing)...),
			"function 5: wasm: malformed module: offset 2: unknown opcode 0xff"},
		{"two bad bodies, the other way round", codeModule(64, bodies(5, trailing, 9, badOp)...),
			"wasm: malformed module: offset 2: function 5: trailing bytes after body"},
		{"sub-opcode past a byte", codeModule(64, bodies(5, wideSub, 0, good)...),
			"function 5: wasm: malformed module: offset 4: unsupported prefixed opcode 266"},
		{"bad body before a truncated size prefix", codeModule(64, append(bodies(5, badOp, 9, trailing)[:40], []byte{0x80})...),
			"function 5: wasm: malformed module: offset 2: unknown opcode 0xff"},
		{"truncated size prefix after good bodies", codeModule(64, append(bodies(0, good, 1, good)[:40], []byte{0x80})...),
			"wasm: malformed module: offset 121: wasm: malformed LEB128 integer: truncated"},
		{"body size beyond the section after good bodies", codeModule(64, append(bodies(0, good, 1, good)[:40], []byte{0x10, 0x00})...),
			"wasm: malformed module: offset 122: need 16 bytes, have 1"},
		{"fewer bodies than declared", codeModule(64, bodies(0, good, 1, good)[:40]...),
			"wasm: malformed module: offset 121: wasm: malformed LEB128 integer: truncated"},
		{"ill-typed body below a bad one", codeModule(64, bodies(2, illTyped, 9, badOp)...),
			"function 9: wasm: malformed module: offset 2: unknown opcode 0xff"},
		{"ill-typed body before a truncated size prefix", codeModule(64, append(bodies(2, illTyped, 1, good)[:40], []byte{0x80})...),
			"wasm: malformed module: offset 123: wasm: malformed LEB128 integer: truncated"},
	}
	decoders := map[string]func([]byte) (*wasm.Module, error){"wasm.Decode": wasm.Decode, "validate.Decode": validate.Decode}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for name, decode := range decoders {
				for _, procs := range []int{1, 4} {
					func() {
						defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
						for round := 0; round < 100; round++ {
							if _, err := decode(c.in); err == nil || err.Error() != c.want {
								t.Fatalf("%s, GOMAXPROCS=%d round %d: error %q, want %q", name, procs, round, err, c.want)
							}
						}
					}()
				}
			}
		})
	}
}

// codeModule is a module of declared functions of type () -> () whose
// code section declares as many bodies and holds the given ones, each
// written as it stands (size prefix included).
func codeModule(declared int, bodies ...[]byte) []byte {
	funcs := wasm.AppendUleb128(nil, uint64(declared))
	funcs = append(funcs, make([]byte, declared)...) // each of type 0
	code := wasm.AppendUleb128(nil, uint64(declared))
	for _, b := range bodies {
		code = append(code, b...)
	}
	out := []byte{
		0x00, 0x61, 0x73, 0x6d, 0x01, 0x00, 0x00, 0x00,
		0x01, 0x04, 0x01, 0x60, 0x00, 0x00, // type: () -> ()
	}
	out = append(wasm.AppendUleb128(append(out, 0x03), uint64(len(funcs))), funcs...)
	return append(wasm.AppendUleb128(append(out, 0x0a), uint64(len(code))), code...)
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

// declaredCounts has one tiny module per place where the decoder makes
// room for a vector whose length the input declares: each declares
// 0xffffffff elements (0x0fffffff br_table targets) and ends there.
// Sized by the declaration, the code section's alone is a 206 GB
// request the runtime answers with a fatal out-of-memory no recover
// catches.
var declaredCounts = func() []struct {
	name string
	in   []byte
} {
	preamble := []byte{0x00, 0x61, 0x73, 0x6d, 0x01, 0x00, 0x00, 0x00}
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0x0f}
	section := func(id byte, body ...byte) []byte {
		return append(wasm.AppendUleb128(append(clone(preamble), id), uint64(len(body))), body...)
	}
	cat := func(bs ...[]byte) (out []byte) {
		for _, b := range bs {
			out = append(out, b...)
		}
		return out
	}
	return []struct {
		name string
		in   []byte
	}{
		{"code bodies", section(10, append(huge, 0x00)...)},
		{"function names", section(0, cat([]byte{4, 'n', 'a', 'm', 'e', 0x01, 0x05}, huge)...)},
		{"types", section(1, huge...)},
		{"imports", section(2, huge...)},
		{"functions", section(3, huge...)},
		{"exports", section(7, huge...)},
		{"element functions", section(9, cat([]byte{0x01, 0x00, 0x41, 0x00, 0x0b}, huge)...)},
		{"br_table targets", codeModule(1, cat([]byte{0x08, 0x00, 0x0e}, []byte{0xff, 0xff, 0xff, 0x7f}, []byte{0x00, 0x0b}))},
	}
}()

// TestDecodeDeclaredCounts: no declared count is an allocation. Every
// input is refused — but for the name section's, a custom section, and
// a malformed one of those is skipped — having allocated under 1 MiB.
func TestDecodeDeclaredCounts(t *testing.T) {
	for _, c := range declaredCounts {
		t.Run(c.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			m, err := wasm.Decode(c.in)
			runtime.ReadMemStats(&after)
			if (err == nil) != (c.name == "function names") {
				t.Errorf("Decode returned %v, %v", m, err)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
				t.Errorf("Decode of %d bytes allocated %d bytes", len(c.in), got)
			}
		})
	}
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
