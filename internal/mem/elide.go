package mem

import (
	"unsafe"
)

// This file backs the compiled engines' bounds-check elision pass
// (DESIGN.md §11): CheckRange validates — and, for the virtual-memory
// strategies, commits — a whole address range up front, after which
// the unchecked accessors read and write with no watermark compare
// and no Go slice bounds check. The contract mirrors what a real
// optimizing JIT relies on:
//
//   - CheckRange never traps. A failed check means "this range cannot
//     be proven accessible"; the caller must fall back to the checked
//     per-access path, which reproduces exact trap sites and clamp
//     redirect semantics. This is what keeps elided code bit-for-bit
//     equivalent to per-access-checked code.
//   - A successful check is never invalidated: linear memory only
//     grows, and committed pages stay committed for the lifetime of
//     the instance (arena recycling happens between instances).
//   - The clamp strategy always fails the check: clamp rewrites each
//     out-of-bounds address per access (paper §V), a per-access
//     semantics that a range check cannot summarize, so clamp runs
//     the checked fallback unconditionally.
//
// The unchecked accessors assume a little-endian host, like every
// production wasm engine's generated loads/stores; init refuses to
// start elsewhere.

func init() {
	x := uint16(1)
	if *(*byte)(unsafe.Pointer(&x)) != 1 {
		panic("mem: unchecked accessors require a little-endian host")
	}
}

// ElisionCapable reports whether CheckRange can ever succeed for
// this memory: clamp rewrites addresses per access, so range guards
// can skip their evaluation work and go straight to the checked
// fallback.
func (m *Memory) ElisionCapable() bool { return m.strategy != Clamp }

// CheckRange reports whether every access inside [addr, addr+n) may
// proceed without further bounds checks, committing the spanned pages
// first when the strategy resolves accessibility through faults. It
// never traps: on false the caller must take the fully-checked path.
// The returned address is addr itself on success (kept in the
// signature so future strategies may relocate ranges the way clamp
// relocates single accesses).
func (m *Memory) CheckRange(addr, n uint64, write bool) (uint64, bool) {
	end := addr + n
	if end < addr {
		return 0, false
	}
	if m.strategy != Clamp && end <= m.fastLimit.Load() {
		return addr, true
	}
	switch m.strategy {
	case Clamp:
		// Per-access redirect semantics; see the file comment.
		return 0, false
	case None:
		// Anywhere inside the backing is accessible once its pages have
		// taken their first-touch fault.
		if m.touchRange(addr, n) {
			return addr, true
		}
		return 0, false
	case Trap:
		// fastLimit is the wasm-visible size: past it the range is
		// genuinely out of bounds — unless a shared grow published a
		// larger size after the watermark read above.
		if end <= m.sizeBytes.Load() {
			return addr, true
		}
		return 0, false
	case Mprotect, Uffd:
		if end > m.sizeBytes.Load() {
			return 0, false
		}
		m.faultRange(addr, n, write)
		return addr, true
	}
	return 0, false
}

// faultRange commits every page spanned by [addr, addr+n) with at
// most one fault invocation: the first uncommitted page in the range
// takes the fault, and the handler's single mprotect /
// UFFDIO_ZEROPAGE call populates the rest of the span
// (already-committed pages inside it are skipped by the per-page
// CAS). The caller must have established addr+n <= sizeBytes.
func (m *Memory) faultRange(addr, n uint64, write bool) {
	end := addr + n
	hole := m.mapping.CommittedPrefix(addr)
	if hole >= end {
		// Fully committed already (fastLimit may simply trail a
		// scattered commit pattern); pull the watermark forward so the
		// next check takes the fast path.
		m.advanceWatermark()
		return
	}
	m.fault(hole, end-hole, write)
}

// Unchecked accessors: raw little-endian loads and stores with no
// bounds or commit checks of any kind. The caller must have
// established accessibility of [addr, addr+width) via CheckRange on
// this Memory, or compared addr+width against Watermark. The compiled
// run loop is the only intended caller: its unchecked access cases,
// and its checked ones on a watermark hit.

// LoadU8Unchecked reads one byte with no checks.
func (m *Memory) LoadU8Unchecked(addr uint64) byte {
	return *(*byte)(unsafe.Add(m.ptr, uintptr(addr)))
}

// LoadU16Unchecked reads a little-endian uint16 with no checks.
func (m *Memory) LoadU16Unchecked(addr uint64) uint16 {
	return *(*uint16)(unsafe.Add(m.ptr, uintptr(addr)))
}

// LoadU32Unchecked reads a little-endian uint32 with no checks.
func (m *Memory) LoadU32Unchecked(addr uint64) uint32 {
	return *(*uint32)(unsafe.Add(m.ptr, uintptr(addr)))
}

// LoadU64Unchecked reads a little-endian uint64 with no checks.
func (m *Memory) LoadU64Unchecked(addr uint64) uint64 {
	return *(*uint64)(unsafe.Add(m.ptr, uintptr(addr)))
}

// StoreU8Unchecked writes one byte with no checks.
func (m *Memory) StoreU8Unchecked(addr uint64, v byte) {
	*(*byte)(unsafe.Add(m.ptr, uintptr(addr))) = v
}

// StoreU16Unchecked writes a little-endian uint16 with no checks.
func (m *Memory) StoreU16Unchecked(addr uint64, v uint16) {
	*(*uint16)(unsafe.Add(m.ptr, uintptr(addr))) = v
}

// StoreU32Unchecked writes a little-endian uint32 with no checks.
func (m *Memory) StoreU32Unchecked(addr uint64, v uint32) {
	*(*uint32)(unsafe.Add(m.ptr, uintptr(addr))) = v
}

// StoreU64Unchecked writes a little-endian uint64 with no checks.
func (m *Memory) StoreU64Unchecked(addr uint64, v uint64) {
	*(*uint64)(unsafe.Add(m.ptr, uintptr(addr))) = v
}
