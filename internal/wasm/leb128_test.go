package wasm

import (
	"math"
	"testing"
	"testing/quick"
)

func TestUleb128Roundtrip(t *testing.T) {
	cases := []uint64{0, 1, 127, 128, 255, 256, 16383, 16384, math.MaxUint32, math.MaxUint64}
	for _, v := range cases {
		enc := AppendUleb128(nil, v)
		got, n, err := Uleb128(enc, 64)
		if err != nil {
			t.Fatalf("Uleb128(%d): %v", v, err)
		}
		if got != v || n != len(enc) {
			t.Errorf("Uleb128 roundtrip %d: got %d, consumed %d of %d", v, got, n, len(enc))
		}
	}
}

func TestUleb128RoundtripQuick(t *testing.T) {
	f := func(v uint64) bool {
		enc := AppendUleb128(nil, v)
		got, n, err := Uleb128(enc, 64)
		return err == nil && got == v && n == len(enc)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUleb128RoundtripQuick32(t *testing.T) {
	f := func(v uint32) bool {
		enc := AppendUleb128(nil, uint64(v))
		got, n, err := Uleb128(enc, 32)
		return err == nil && uint32(got) == v && n == len(enc)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSleb128RoundtripQuick(t *testing.T) {
	f := func(v int64) bool {
		enc := AppendSleb128(nil, v)
		got, n, err := Sleb128(enc, 64)
		return err == nil && got == v && n == len(enc)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSleb128RoundtripQuick32(t *testing.T) {
	f := func(v int32) bool {
		enc := AppendSleb128(nil, int64(v))
		got, n, err := Sleb128(enc, 32)
		return err == nil && int32(got) == v && n == len(enc)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSleb128Boundaries(t *testing.T) {
	cases := []int64{0, -1, 1, 63, 64, -64, -65, math.MaxInt32, math.MinInt32, math.MaxInt64, math.MinInt64}
	for _, v := range cases {
		enc := AppendSleb128(nil, v)
		got, n, err := Sleb128(enc, 64)
		if err != nil {
			t.Fatalf("Sleb128(%d): %v", v, err)
		}
		if got != v || n != len(enc) {
			t.Errorf("Sleb128 roundtrip %d: got %d, consumed %d of %d", v, got, n, len(enc))
		}
	}
}

func TestUleb128Truncated(t *testing.T) {
	if _, _, err := Uleb128([]byte{0x80}, 32); err == nil {
		t.Error("expected error for truncated input")
	}
	if _, _, err := Uleb128(nil, 32); err == nil {
		t.Error("expected error for empty input")
	}
}

func TestUleb128Overlong(t *testing.T) {
	// 6 continuation bytes exceed the 5-byte maximum for u32.
	if _, _, err := Uleb128([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x01}, 32); err == nil {
		t.Error("expected error for overlong u32")
	}
	// A 5th byte with any bit above bit 3 set overflows u32.
	if _, _, err := Uleb128([]byte{0xff, 0xff, 0xff, 0xff, 0x10}, 32); err == nil {
		t.Error("expected error for u32 overflow")
	}
	// 0x0f in the 5th byte is exactly the top 4 bits: legal.
	v, _, err := Uleb128([]byte{0xff, 0xff, 0xff, 0xff, 0x0f}, 32)
	if err != nil || uint32(v) != math.MaxUint32 {
		t.Errorf("max u32: got %d, %v", v, err)
	}
}

func TestSleb128Truncated(t *testing.T) {
	if _, _, err := Sleb128([]byte{0x80}, 32); err == nil {
		t.Error("expected error for truncated input")
	}
}

func TestUleb128ConsumedPrefix(t *testing.T) {
	// Decoding should stop at the terminator and leave trailing bytes.
	enc := AppendUleb128(nil, 300)
	enc = append(enc, 0xde, 0xad)
	v, n, err := Uleb128(enc, 32)
	if err != nil || v != 300 || n != len(enc)-2 {
		t.Errorf("got v=%d n=%d err=%v", v, n, err)
	}
}

// TestDecoderOneByte pins the decoder's one-byte fast path to what the
// general loop returns: a signed value sign-extends from bit 6 of its
// one byte, an unsigned one does not.
func TestDecoderOneByte(t *testing.T) {
	for _, c := range []struct {
		b      byte
		u32    uint32
		signed int64
	}{{0x00, 0, 0}, {0x3f, 63, 63}, {0x40, 64, -64}, {0x7f, 127, -1}} {
		d := &decoder{buf: []byte{c.b, 0xff}}
		if v, err := d.u32(); err != nil || v != c.u32 || d.pos != 1 {
			t.Errorf("u32 of %#02x: %d, %v, pos %d; want %d", c.b, v, err, d.pos, c.u32)
		}
		d = &decoder{buf: []byte{c.b, 0xff}}
		if v, err := d.s32(); err != nil || int64(v) != c.signed || d.pos != 1 {
			t.Errorf("s32 of %#02x: %d, %v, pos %d; want %d", c.b, v, err, d.pos, c.signed)
		}
		d = &decoder{buf: []byte{c.b, 0xff}}
		if v, err := d.s64(); err != nil || v != c.signed || d.pos != 1 {
			t.Errorf("s64 of %#02x: %d, %v, pos %d; want %d", c.b, v, err, d.pos, c.signed)
		}
		if v, _, _ := Sleb128([]byte{c.b}, 32); v != c.signed {
			t.Errorf("Sleb128 of %#02x: %d, the fast path %d", c.b, v, c.signed)
		}
	}
}
