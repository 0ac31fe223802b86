package wasi

import (
	"bytes"
	"testing"
)

// TestWriteAtGapAfterTruncate: a write past the end zero-fills the gap,
// even where a truncate left the old bytes in the slice's capacity.
func TestWriteAtGapAfterTruncate(t *testing.T) {
	f := &memFile{}
	f.writeAt([]byte("abc"), 0)
	f.truncate()
	if n := f.writeAt([]byte("x"), 2); n != 1 {
		t.Fatalf("wrote %d bytes, want 1", n)
	}
	if want := []byte{0, 0, 'x'}; !bytes.Equal(f.data, want) {
		t.Errorf("file %q, want %q", f.data, want)
	}
}

// TestWriteAtAppendGrowsGeometrically: a run of appending writes
// reallocates O(log n) times, not once per write, and keeps every
// byte.
func TestWriteAtAppendGrowsGeometrically(t *testing.T) {
	const frames, frameSize = 128, 96
	want := make([]byte, frames*frameSize)
	for i := range want {
		want[i] = byte(i / frameSize)
	}
	var f *memFile
	allocs := testing.AllocsPerRun(10, func() {
		f = &memFile{}
		for i := 0; i < frames; i++ {
			f.writeAt(want[i*frameSize:(i+1)*frameSize], int64(i*frameSize))
		}
	})
	if allocs > 16 {
		t.Errorf("%v allocations for %d appending %d-byte writes, want ≤ 16", allocs, frames, frameSize)
	}
	if !bytes.Equal(f.data, want) {
		t.Errorf("file content differs from the %d frames written", frames)
	}
}
