// Template snapshot and copy-on-write fork of linear memories.
//
// A Snapshot freezes one memory's wasm-visible state — contents up to
// the current size, plus the grow bookkeeping (size, min, max) — into
// an immutable vmm.PageSource. NewFromSnapshot instantiates a new
// Memory whose pages populate from that image instead of the zero
// page, through each strategy's own protection layout:
//
//	none/clamp/trap  eager: the RW mapping is touched over the full
//	                 size, duplicating every source page up front
//	                 (these strategies commit eagerly at instantiation
//	                 anyway, so the fork matches their layout)
//	mprotect         lazy: PROT_NONE reservation; the SIGSEGV handler
//	                 duplicates source pages as faults commit them
//	                 (EagerCommit forks commit+copy in one mprotect)
//	uffd             lazy: a pooled arena is borrowed and pointed at
//	                 the source; lock-free fault population installs
//	                 source pages instead of zero pages
//
// The virtual-memory strategies therefore defer page duplication to
// first write/access — true copy-on-write — while the software
// strategies fall back to an eager copy, keeping all five comparable
// exactly as instantiation itself does.
package mem

import (
	"fmt"
	"unsafe"

	"leapsandbounds/internal/faultinject"
	"leapsandbounds/internal/vmm"
	"leapsandbounds/internal/wasm"
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

// SizeBytes returns the wasm-visible size captured by the snapshot.
func (s *Snapshot) SizeBytes() uint64 { return s.sizeBytes }

// MaxPages returns the page limit captured by the snapshot.
func (s *Snapshot) MaxPages() uint32 { return uint32(s.maxBytes / wasm.PageSize) }

// Source exposes the frozen page image (for tests).
func (s *Snapshot) Source() *vmm.PageSource { return s.src }

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
// identical to its template.
func NewFromSnapshot(cfg Config, snap *Snapshot) (*Memory, error) {
	if cfg.AS == nil {
		return nil, fmt.Errorf("mem: Config.AS is required")
	}
	if snap == nil || snap.src == nil {
		return nil, fmt.Errorf("mem: nil snapshot")
	}
	sc := cfg.AS.Obs().Child("mem").Child(cfg.Strategy.String())
	m := &Memory{
		strategy:     cfg.Strategy,
		minBytes:     snap.minBytes,
		maxBytes:     snap.maxBytes,
		obs:          sc,
		growCalls:    sc.Counter("grows"),
		faultCommits: sc.Counter("fault_commits"),
		faultPages:   sc.Counter("fault_pages"),
		inj:          cfg.AS.Injector(),
	}
	m.sizeBytes.Store(snap.sizeBytes)
	sc.Counter("forks").Inc()
	switch cfg.Strategy {
	case None, Clamp, Trap:
		// Eager strategies can't defer the copy: the whole window is
		// RW from the start, so the fork duplicates the image at
		// instantiation via the first-touch path.
		mp, err := cfg.AS.MmapCoWTraced(Reserve, m.maxBytes, vmm.ProtRW, snap.src, cfg.Span)
		if err != nil {
			return nil, err
		}
		if size := m.sizeBytes.Load(); size > 0 {
			if err := mp.Touch(0, size); err != nil {
				cleanup(cfg.AS, mp)
				return nil, err
			}
		}
		m.mapping = mp
		m.data = mp.Data()
		m.fastLimit.Store(m.sizeBytes.Load())
	case Mprotect:
		mp, err := cfg.AS.MmapCoWTraced(Reserve, m.maxBytes, vmm.ProtNone, snap.src, cfg.Span)
		if err != nil {
			return nil, err
		}
		m.mapping = mp
		m.data = mp.Data()
		m.eager = cfg.EagerCommit
		if size := m.sizeBytes.Load(); m.eager && size > 0 {
			if err := m.mprotectRetry(mp, 0, size); err != nil {
				cleanup(cfg.AS, mp)
				return nil, err
			}
			m.fastLimit.Store(size)
			m.committedEnd.Store(size)
		}
	case Uffd:
		if cfg.DisablePool {
			mp, err := cfg.AS.MmapCoWTraced(Reserve, m.maxBytes, vmm.ProtNone, snap.src, cfg.Span)
			if err != nil {
				return nil, err
			}
			if err := mp.RegisterUffd(); err != nil {
				cleanup(cfg.AS, mp)
				return nil, err
			}
			m.mapping = mp
			m.data = mp.Data()
			if cfg.UffdPoll {
				// Pool-less instances own their handler thread, forked
				// or not; the shared-poller rule below applies to the
				// pooled deployment.
				m.poll = newUffdServer()
			}
			break
		}
		if cfg.Pool == nil {
			return nil, fmt.Errorf("mem: the uffd strategy requires an arena pool")
		}
		a, err := cfg.Pool.get(cfg.AS, m.maxBytes, cfg.Span)
		if err != nil {
			if site, ok := faultinject.IsTransient(err); ok {
				// Same degradation as New: pool exhaustion falls back to
				// the mprotect strategy, here with the source attached
				// so the fork still sees template contents.
				mp, merr := cfg.AS.MmapCoWTraced(Reserve, m.maxBytes, vmm.ProtNone, snap.src, cfg.Span)
				if merr != nil {
					return nil, merr
				}
				m.strategy = Mprotect
				m.mapping = mp
				m.data = mp.Data()
				sc.Counter("uffd_fallbacks").Inc()
				m.inj.Recovered(site)
				break
			}
			return nil, err
		}
		// The borrowed arena becomes a fork: its decommitted pages now
		// populate from the template image. pool.put clears the source
		// before the arena is parked, so recycling stays zero-fill for
		// the next plain instance.
		a.mapping.SetSource(snap.src)
		m.arena = a
		m.pool = cfg.Pool
		m.mapping = a.mapping
		m.data = a.mapping.Data()
		if cfg.UffdPoll {
			// Forks register with the pool's one handler thread; a
			// fork must never spawn a second poller for the process.
			m.poll = cfg.Pool.pollServer
		}
	default:
		return nil, fmt.Errorf("mem: unknown strategy %v", cfg.Strategy)
	}
	if len(m.data) > 0 {
		m.ptr = unsafe.Pointer(&m.data[0])
	}
	return m, nil
}
