// Package wasm models the WebAssembly binary format: the module
// structure, instruction set, and the LEB128-based binary encoding
// and decoding used by every other package in this repository.
//
// The package implements the WebAssembly 1.0 (MVP) core specification
// plus the sign-extension operators, saturating truncations and the
// memory.copy/memory.fill bulk-memory instructions, which is the
// subset exercised by the paper's workloads.
package wasm

import (
	"errors"
	"fmt"
)

// errLEB128 is returned when a variable-length integer is malformed:
// truncated, over-long, or carrying non-canonical high bits.
var errLEB128 = errors.New("wasm: malformed LEB128 integer")

// AppendUleb128 appends the unsigned LEB128 encoding of v to dst.
func AppendUleb128(dst []byte, v uint64) []byte {
	for {
		b := byte(v & 0x7f)
		v >>= 7
		if v != 0 {
			dst = append(dst, b|0x80)
			continue
		}
		return append(dst, b)
	}
}

// AppendSleb128 appends the signed LEB128 encoding of v to dst.
func AppendSleb128(dst []byte, v int64) []byte {
	for {
		b := byte(v & 0x7f)
		v >>= 7
		if (v == 0 && b&0x40 == 0) || (v == -1 && b&0x40 != 0) {
			return append(dst, b)
		}
		dst = append(dst, b|0x80)
	}
}

// Uleb128 decodes an unsigned LEB128 integer of at most bits bits
// from p, returning the value and the number of bytes consumed.
func Uleb128(p []byte, bits int) (uint64, int, error) {
	var v uint64
	var shift uint
	maxBytes := (bits + 6) / 7
	for i := 0; i < len(p); i++ {
		if i >= maxBytes {
			return 0, 0, fmt.Errorf("%w: too long for u%d", errLEB128, bits)
		}
		b := p[i]
		if i == maxBytes-1 {
			// The final byte may only use the bits that remain.
			rem := uint(bits) - shift
			if b&0x80 != 0 || (rem < 7 && b>>rem != 0) {
				return 0, 0, fmt.Errorf("%w: overflows u%d", errLEB128, bits)
			}
		}
		v |= uint64(b&0x7f) << shift
		if b&0x80 == 0 {
			return v, i + 1, nil
		}
		shift += 7
	}
	return 0, 0, fmt.Errorf("%w: truncated", errLEB128)
}

// Sleb128 decodes a signed LEB128 integer of at most bits bits from
// p, returning the value and the number of bytes consumed.
func Sleb128(p []byte, bits int) (int64, int, error) {
	var v int64
	var shift uint
	maxBytes := (bits + 6) / 7
	for i := 0; i < len(p); i++ {
		if i >= maxBytes {
			return 0, 0, fmt.Errorf("%w: too long for s%d", errLEB128, bits)
		}
		b := p[i]
		if i == maxBytes-1 {
			if b&0x80 != 0 {
				return 0, 0, fmt.Errorf("%w: overflows s%d", errLEB128, bits)
			}
			// The bits beyond the value width must be a proper sign
			// extension of the value's top bit.
			rem := uint(bits) - shift
			if rem < 7 {
				signBits := byte(0x7f) &^ (1<<rem - 1)
				top := b & signBits
				negative := b&(1<<(rem-1)) != 0
				if (negative && top != signBits) || (!negative && top != 0) {
					return 0, 0, fmt.Errorf("%w: non-canonical s%d", errLEB128, bits)
				}
			}
		}
		v |= int64(b&0x7f) << shift
		shift += 7
		if b&0x80 == 0 {
			if shift < 64 && b&0x40 != 0 {
				v |= -1 << shift
			}
			return v, i + 1, nil
		}
	}
	return 0, 0, fmt.Errorf("%w: truncated", errLEB128)
}
