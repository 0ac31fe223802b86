// Host-boundary memory views. A host function that needs guest
// memory must not index the linear memory unchecked: the window it
// was handed is only as valid as the bounds check that produced it,
// and the guest can call memory.grow from a re-entrant hostcall (or,
// with shared memories, a sibling thread) while the host still holds
// the window — the embedder-API hazard "Not So Fast" flags and the
// wazero-style runtimes guard with view revalidation.
//
// HostMemView packages that discipline. Acquiring a view performs one
// bulk bounds check (trapping out-of-bounds under every strategy,
// like memory.copy) and records the memory's grow generation. The
// flat strategies (none/clamp/trap) take an eager copy — the copying
// embedder boundary, where host I/O never touches guest pages
// directly and writes land in one validated Commit. The virtual-
// memory strategies (mprotect/uffd) hand out the live window: the
// bulk check already committed the pages through the fault machinery,
// so the host reads and writes guest memory in place and Commit is
// free. Every Data access compares generations and revalidates after
// a grow, so the five strategies pay their boundary costs exactly
// where the real runtimes do.
package core

import (
	"leapsandbounds/internal/mem"
	"leapsandbounds/internal/obs"
)

// HostMemView is a bounds-checked window over guest memory held by a
// host function for the duration of one hostcall. Not safe for
// concurrent use; acquire one per call.
type HostMemView struct {
	m     *mem.Memory
	addr  uint64
	n     uint64
	write bool
	// gen is the grow generation the current window was validated
	// against.
	gen uint64
	// live is the direct window (virtual-memory strategies).
	live []byte
	// copyBuf is the eager copy (flat strategies); writes land back
	// in guest memory at Commit.
	copyBuf []byte
	revalC  *obs.Counter
}

// eagerCopyBoundary reports whether the strategy's host boundary
// copies (flat strategies) rather than pinning live pages (the
// virtual-memory strategies, whose bulk check faults the pages in).
func eagerCopyBoundary(s mem.Strategy) bool {
	switch s {
	case mem.Mprotect, mem.Uffd:
		return false
	default:
		return true
	}
}

// View acquires a host-boundary window over [addr, addr+n). Traps
// (panics with *trap.Trap) when the range is out of bounds — under
// every strategy, the wasm bulk-operation semantics. n == 0 returns
// an empty but still range-checked view.
func (hc *HostContext) View(addr, n uint64, write bool) *HostMemView {
	if hc.views != nil {
		hc.views.Inc()
	}
	v := &HostMemView{
		m:      hc.Mem,
		addr:   addr,
		n:      n,
		write:  write,
		revalC: hc.revals,
	}
	v.acquire(true)
	return v
}

// acquire (re)validates the range and materializes the window.
// snapshot selects whether an eager-copy view re-reads guest content:
// true on first acquisition (so Commit is a read-modify-write of the
// window and bytes the host never touched round-trip unchanged), and
// on revalidation only for read views — a write view's buffer is the
// host's pending output and must survive the grow.
func (v *HostMemView) acquire(snapshot bool) {
	v.gen = v.m.Generation()
	b := v.m.Bytes(v.addr, v.n, v.write)
	if !eagerCopyBoundary(v.m.Strategy()) {
		v.live = b
		return
	}
	if v.copyBuf == nil {
		v.copyBuf = make([]byte, v.n)
		snapshot = true
	}
	if snapshot {
		copy(v.copyBuf, b)
	}
}

// Data returns the window's bytes, revalidating first if the guest
// grew memory since the last validation. The returned slice is valid
// until the next Data/Commit call.
func (v *HostMemView) Data() []byte {
	if v.m.Generation() != v.gen {
		v.revalidate()
	}
	if v.copyBuf != nil {
		return v.copyBuf
	}
	return v.live
}

// revalidate re-checks the window against the current memory bounds
// and re-acquires it. Called automatically by Data on a generation
// mismatch; a grow can only extend memory, so an in-bounds window
// stays in bounds, but the virtual-memory strategies must re-take
// the live slice (the backing window is owned by the bounds check
// that produced it) and the check cost is the point being measured.
func (v *HostMemView) revalidate() {
	if v.revalC != nil {
		v.revalC.Inc()
	}
	v.acquire(!v.write)
}

// Commit writes an eager-copy view's bytes back into guest memory
// through a fresh bounds check. No-op for read views and for the
// live-window strategies (their writes already landed).
func (v *HostMemView) Commit() {
	if !v.write || v.copyBuf == nil {
		return
	}
	v.m.WriteAt(v.addr, v.copyBuf)
	v.gen = v.m.Generation()
}
