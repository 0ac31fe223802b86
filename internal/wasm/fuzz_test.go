package wasm_test

import (
	"bytes"
	"testing"

	"leapsandbounds/internal/wasm"
	"leapsandbounds/internal/workloads"
)

// FuzzDecode feeds arbitrary bytes to the binary decoder. Two
// properties must hold: Decode never panics (the fuzzer fails on any
// panic automatically), and any module it accepts must round-trip —
// Encode succeeds, and Decode(Encode(m)) re-encodes to identical
// bytes, i.e. encode∘decode is a fixed point on the decoder's image.
// The seed corpus is every workload module, brTablesModule (the
// workloads hold no br_table), plus the malformed-input shapes the
// unit tests pin (a vector count the input cannot back, at
// every place the decoder reads one, among them), so coverage guidance
// starts from inputs that reach deep into section parsing.
func FuzzDecode(f *testing.F) {
	for _, spec := range workloads.All() {
		m, _ := spec.Build(workloads.Test)
		if bin, err := wasm.Encode(m); err == nil {
			f.Add(bin)
			// A truncated and a byte-flipped variant nudge the fuzzer
			// toward the error paths immediately.
			f.Add(bin[:len(bin)/2])
			c := append([]byte(nil), bin...)
			c[len(c)/3] ^= 0xff
			f.Add(c)
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x61, 0x73, 0x6d, 0x01, 0x00, 0x00, 0x00})
	f.Add(brTablesModule)
	f.Add(oversizedBodyModule)
	for _, c := range declaredCounts {
		f.Add(c.in)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := wasm.Decode(data)
		if err != nil {
			return
		}
		bin, err := wasm.Encode(m)
		if err != nil {
			t.Fatalf("decoded module failed to encode: %v", err)
		}
		m2, err := wasm.Decode(bin)
		if err != nil {
			t.Fatalf("re-decode of own encoding failed: %v", err)
		}
		bin2, err := wasm.Encode(m2)
		if err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		if !bytes.Equal(bin, bin2) {
			t.Fatal("encode->decode->encode is not a fixed point")
		}
	})
}
