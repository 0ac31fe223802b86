package vmm

import "leapsandbounds/internal/obs"

// PageSource is the frozen page image of a template instance: an
// immutable, page-aligned copy of the template's memory contents
// taken at Snapshot time. Forked mappings reference it as their
// copy-on-write origin — a page populates from the source the moment
// it first commits (write-fault-driven duplication), exactly where a
// real kernel would break CoW sharing and copy the template frame.
//
// The snapshot copies the template bytes once, so a PageSource has no
// backpointer to the template's mapping: the template may be torn
// down (Close, Munmap, arena recycling) while any number of forks
// keep reading from the source. This sidesteps the teardown-ordering
// hazard a true shared-frame implementation would have to referee.
type PageSource struct {
	data []byte
}

// NewPageSource freezes a copy of data, rounding the image up to a
// whole number of ps-sized pages (the tail page is zero-padded, as
// the template's partially-used last page would be).
func NewPageSource(ps uint64, data []byte) *PageSource {
	if ps == 0 {
		ps = 4096
	}
	n := roundUp(uint64(len(data)), ps)
	img := make([]byte, n)
	copy(img, data)
	return &PageSource{data: img}
}

// Len returns the image length in bytes (page-aligned).
func (s *PageSource) Len() uint64 { return uint64(len(s.data)) }

// MmapCoWTraced reserves a mapping whose pages populate from src as
// they commit, instead of from the zero page: the simulated analog of
// mmap'ing a template's pages MAP_PRIVATE and letting write faults
// duplicate them. The mapping goes through the ordinary mmap path —
// same VMA tree, same mmap-lock accounting — so fork costs show up in
// the same counters as everything else.
func (as *AddressSpace) MmapCoWTraced(reserve, backing uint64, prot Prot, src *PageSource, parent obs.SpanRef) (*Mapping, error) {
	m, err := as.MmapTraced(reserve, backing, prot, parent)
	if err != nil {
		return nil, err
	}
	m.src.Store(src)
	if src != nil {
		as.stats.CowForks.Add(1)
	}
	return m, nil
}

// SetSource installs (or, with nil, clears) the mapping's
// copy-on-write origin. Pooled uffd arenas use it: a fork borrows a
// recycled arena and points it at the template image; pool.put clears
// it before the arena is parked so the next plain instance observes
// zero-filled pages again.
func (m *Mapping) SetSource(src *PageSource) {
	old := m.src.Swap(src)
	if src != nil && old != src {
		m.as.stats.CowForks.Add(1)
	}
}

// populateFromSource installs the source contents of page p into the
// backing, called on the commit transition (Mprotect under the mmap
// lock, UffdZeroPages/Touch immediately before the committed bit is
// published — the UFFDIO_COPY install-then-publish order). Pages past
// the source image stay zero, as memory the template never had does.
func (m *Mapping) populateFromSource(p uint64) {
	src := m.src.Load()
	if src == nil {
		return
	}
	ps := m.as.cfg.PageSize
	off := p * ps
	if off >= uint64(len(src.data)) {
		return
	}
	end := min(off+ps, uint64(len(src.data)))
	copy(m.data[off:off+ps], src.data[off:end])
	m.as.stats.CowPagesCopied.Add(1)
}
