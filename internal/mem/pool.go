package mem

import (
	"errors"
	"sync"
	"sync/atomic"

	"leapsandbounds/internal/hazard"
	"leapsandbounds/internal/obs"
	"leapsandbounds/internal/vmm"
)

// errArenaDoubleRelease reports an arena returned to the pool twice
// without an intervening acquisition — a lifetime bug that would
// otherwise hand the same mapping to two instances.
var errArenaDoubleRelease = errors.New("mem: arena released to the pool twice")

// ArenaPool recycles userfaultfd-registered memory arenas across
// instance lifetimes. This is the paper's uffd mitigation (§4.2.1):
// instead of mmap/mprotect/munmap per instance — each serializing on
// the kernel's per-process mmap lock — arenas are parked on a
// lock-free Treiber stack, each arena's size is a plain watermark,
// and arena retirement is protected by hazard pointers so that a
// concurrent pop never touches a freed arena.
//
// A pool is shared by every instance in a simulated process; all
// operations are safe for concurrent use.
type ArenaPool struct {
	head   atomic.Pointer[link]
	domain hazard.Domain
	// obsOnce wires the pool's counters and the hazard domain's
	// reclamation telemetry to the first acquiring process's scope
	// (pools are per-process, so the first is the only one).
	obsOnce sync.Once
	// pollServer serves poll-mode fault delivery when a Memory is
	// configured with UffdPoll (one handler thread per process, as
	// a real poll-mode userfaultfd deployment would run).
	pollServer *uffdServer

	// Statistics, the pool's own; obsOnce registers these same objects
	// under the process scope's "pool" child.
	created  obs.Counter
	reused   obs.Counter
	returned obs.Counter
}

// link is one cell of the pool's stack. put pushes a fresh link per
// release and a link is never pushed twice, so a head that still
// equals the link a popper loaded means the stack below it is the one
// the popper read: an arena popped, handed out and returned between a
// popper's load and its compare-and-swap comes back under a different
// link, and the stale swap fails instead of installing a next that
// another instance holds (the Treiber-stack ABA).
type link struct {
	a    *arena
	next *link
}

// arena is one pooled memory reservation.
type arena struct {
	mapping *vmm.Mapping
	// obs is the owning process's scope, captured at creation so put
	// (which has no AddressSpace parameter) can trace recycling.
	obs *obs.Scope
	// pooled guards against double release: true while the arena sits
	// in (or is being returned to) the pool.
	pooled atomic.Bool
}

// NewArenaPool returns an empty pool.
func NewArenaPool() *ArenaPool {
	return &ArenaPool{pollServer: newUffdServer()}
}

// get pops a pooled arena of at least maxBytes backing, or creates
// a fresh uffd-registered reservation. parent is the causal span the
// acquisition (and any mmap it causes) reports under; the returned
// arena's mapping is re-parented to it.
func (p *ArenaPool) get(as *vmm.AddressSpace, maxBytes uint64, parent obs.SpanRef) (*arena, error) {
	p.obsOnce.Do(func() {
		p.domain.AttachObs(as.Obs().Child("hazard"))
		sc := as.Obs().Child("pool")
		sc.RegisterCounter("created", &p.created)
		sc.RegisterCounter("reused", &p.reused)
		sc.RegisterCounter("returned", &p.returned)
	})
	sp := as.Obs().StartSpan(obs.SpanPoolGet, parent)
	defer sp.End()
	if l := p.pop(maxBytes); l != nil {
		p.reused.Add(1)
		l.a.mapping.SetSpanParent(parent)
		return l.a, nil
	}
	mp, err := as.MmapTraced(Reserve, maxBytes, vmm.ProtNone, sp.Ref())
	if err != nil {
		return nil, err
	}
	if err := mp.RegisterUffd(); err != nil {
		_ = mp.Munmap()
		return nil, err
	}
	mp.SetSpanParent(parent)
	p.created.Add(1)
	return &arena{mapping: mp, obs: as.Obs()}, nil
}

// pop removes the link of an arena with sufficient backing from the
// stack. Only the head is inspected: arenas in one pool are uniformly
// sized in practice (one pool per workload), so a deeper search is
// not needed; an unsuitable head is left in place and nil returned.
func (p *ArenaPool) pop(maxBytes uint64) *link {
	slot := p.domain.Acquire()
	defer slot.Release()
	for {
		l := hazard.Protect(slot, &p.head)
		if l == nil {
			return nil
		}
		if l.a.mapping.Backing() < maxBytes {
			return nil
		}
		if p.head.CompareAndSwap(l, l.next) {
			slot.Clear()
			l.a.pooled.Store(false)
			return l
		}
	}
}

// put recycles an arena after an instance closes. The used range is
// decommitted lock-free — which scrubs it, MADV_DONTNEED-style — so
// the next instance observes fresh zero-filled pages (kernel
// semantics), then the arena is pushed back. A decommit error (a bad
// range or an unmapped arena: a lifetime bug) is returned and the
// arena is not parked. Releasing the same arena twice is detected and
// rejected.
func (p *ArenaPool) put(a *arena, usedBytes uint64) error {
	if a.pooled.Swap(true) {
		return errArenaDoubleRelease
	}
	// A fork's arena carries a copy-on-write source; detach it before
	// the arena is parked so the next borrower observes zero-filled
	// pages, not the template image.
	a.mapping.SetSource(nil)
	// Recycling work (decommit) parents under a pool.put span, itself
	// under whatever the closing instance last pointed the mapping at;
	// once parked the arena is detached from that instance's tree.
	sp := a.obs.StartSpan(obs.SpanPoolPut, a.mapping.SpanParent())
	if sp.Ref().Valid() {
		a.mapping.SetSpanParent(sp.Ref())
	}
	defer func() {
		a.mapping.SetSpanParent(obs.SpanRef{})
		sp.End()
	}()
	if usedBytes > 0 {
		if err := a.mapping.UffdDecommitPages(0, usedBytes); err != nil {
			return err
		}
	}
	p.returned.Add(1)
	l := &link{a: a}
	for {
		l.next = p.head.Load()
		if p.head.CompareAndSwap(l.next, l) {
			return nil
		}
	}
}

// Drain unmaps every pooled arena, retiring each through the hazard
// domain so in-flight pops complete safely. The teardown is one
// pool.drain span: every arena's final munmap — immediate or
// deferred past a protecting reader — parents under it.
func (p *ArenaPool) Drain() {
	var sp obs.Span
	for {
		l := p.pop(0)
		if l == nil {
			break
		}
		if !sp.Ref().Valid() {
			sp = l.a.obs.StartSpan(obs.SpanPoolDrain, obs.SpanRef{})
		}
		m := l.a.mapping
		m.SetSpanParent(sp.Ref())
		hazard.Retire(&p.domain, l, func() { _ = m.Munmap() })
	}
	p.domain.Flush()
	sp.End()
	if p.pollServer != nil {
		p.pollServer.close()
	}
}

// poolStats reports pool activity.
type poolStats struct {
	Created, Reused, Returned int64
}

// stats returns a snapshot of pool counters (read by the package's tests).
func (p *ArenaPool) stats() poolStats {
	return poolStats{
		Created:  p.created.Load(),
		Reused:   p.reused.Load(),
		Returned: p.returned.Load(),
	}
}

// sharedPoolKey identifies the per-address-space default pool in the
// vmm aux stash.
const sharedPoolKey = "mem.arenapool"

// SharedPool returns the address space's default arena pool,
// creating it on first use. One pool per simulated process is the
// paper's deployment model: arena recycling only pays off when
// arenas outlive individual instances, so instantiations that don't
// wire an explicit pool must all share this one rather than each
// creating a pool that dies with the instance.
func SharedPool(as *vmm.AddressSpace) *ArenaPool {
	return as.Aux(sharedPoolKey, func() any { return NewArenaPool() }).(*ArenaPool)
}
