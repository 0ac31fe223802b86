// Template snapshot and copy-on-write fork of linear memories.
//
// A Snapshot freezes one memory's wasm-visible state — contents up to
// the current size, plus the grow bookkeeping (size, min, max) — into
// an immutable vmm.PageSource. NewFromSnapshot instantiates a new
// Memory whose pages populate from that image instead of the zero
// page, through the constructor body fresh memories use (newMemory,
// mem.go, which lists each strategy's layout): the virtual-memory
// strategies defer page duplication to first write/access — true
// copy-on-write — while the software strategies copy eagerly, keeping
// all five comparable exactly as instantiation itself does.
package mem

import (
	"fmt"

	"leapsandbounds/internal/vmm"
)

// Snapshot is an immutable image of one memory's state, shareable by
// any number of forks and independent of the donor memory's lifetime
// (the donor may be closed, its arena recycled, before or after forks
// are made).
type Snapshot struct {
	src       *vmm.PageSource
	sizeBytes uint64
	minBytes  uint64
	maxBytes  uint64
}

// Snapshot freezes the memory's current state. The image is a copy:
// the donor can keep running, grow, or close without affecting it.
func (m *Memory) Snapshot() (*Snapshot, error) {
	if m.closed {
		return nil, fmt.Errorf("mem: snapshot of closed memory")
	}
	if m.shared {
		// A shared memory has racing writers by construction; a
		// mid-traffic copy would tear, and the threads proposal gives a
		// shared memory to every thread of the agent anyway — forking a
		// private duplicate has no sound semantics. Callers (Template
		// construction, Fork) must refuse.
		return nil, fmt.Errorf("mem: cannot snapshot a shared memory")
	}
	// Uncommitted pages of the lazy strategies hold zeros in the
	// backing slice — exactly their wasm-visible content — so one
	// contiguous copy of [0, sizeBytes) is correct for every strategy.
	size := m.sizeBytes.Load()
	return &Snapshot{
		src:       vmm.NewPageSource(m.mapping.PageSize(), m.data[:size]),
		sizeBytes: size,
		minBytes:  m.minBytes,
		maxBytes:  m.maxBytes,
	}, nil
}

// NewFromSnapshot instantiates a memory that forks snap: same
// wasm-visible size and contents (including past grows), with pages
// duplicated from the snapshot through the configured strategy's
// commit machinery. Config.MinPages/MaxPages are ignored — the
// snapshot's captured limits win, so a fork is always geometrically
// identical to its template — and so is Config.Shared: a fork is a
// private memory.
func NewFromSnapshot(cfg Config, snap *Snapshot) (*Memory, error) {
	if snap == nil || snap.src == nil {
		return nil, fmt.Errorf("mem: nil snapshot")
	}
	cfg.Shared = false
	return newMemory(cfg, snap)
}
