package vmm

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"leapsandbounds/internal/faultinject"
	"leapsandbounds/internal/obs"
)

// Prot is a page protection bit set.
type Prot uint8

// Protection bits.
const (
	ProtNone  Prot = 0
	protRead  Prot = 1 << 0
	protWrite Prot = 1 << 1
	ProtRW    Prot = protRead | protWrite
)

func (p Prot) String() string {
	switch p {
	case ProtNone:
		return "---"
	case protRead:
		return "r--"
	case protWrite:
		return "-w-"
	case ProtRW:
		return "rw-"
	default:
		return fmt.Sprintf("prot(%#x)", uint8(p))
	}
}

// Page state bits stored per page (atomically).
const pageCommitted uint32 = 1 << 2

// Config models the kernel/hardware parameters of one simulated
// machine. Costs are charged by busy-waiting while holding the same
// locks the kernel would hold, so contention effects are real.
type Config struct {
	// PageSize is the base page size in bytes (default 4096).
	PageSize uint64
	// THPSize is the maximum transparent-huge-page size in bytes;
	// 0 disables THP accounting. The paper observes 1 GiB on x86-64
	// and 2 MiB on Armv8 (§4.3).
	THPSize uint64
	// ShootdownBase is the fixed cost of a TLB shootdown IPI
	// broadcast, charged while holding the mmap lock.
	ShootdownBase time.Duration
	// ShootdownPerThread is the additional cost per active thread
	// (each running CPU must acknowledge the IPI).
	ShootdownPerThread time.Duration
	// MprotectPerPage is the PTE-walk cost per page whose protection
	// changes, charged while holding the mmap lock.
	MprotectPerPage time.Duration
	// MmapBase is the fixed cost of an mmap or munmap call under the
	// mmap lock (VMA allocation, rbtree/maple-tree update).
	MmapBase time.Duration
}

// Errors returned by address-space operations.
var (
	errBadRange = errors.New("vmm: address range outside mapping")
	errUnmapped = errors.New("vmm: mapping already unmapped")
	errNotUffd  = errors.New("vmm: mapping not registered with userfaultfd")
)

// mmapBase is where simulated mappings start, mimicking the mmap
// region of a Linux x86-64 process.
const mmapBase = 0x7f00_0000_0000

// AddressSpace simulates one process's virtual memory: a VMA tree
// guarded by a single lock (the kernel's mmap_lock) plus global
// accounting. All threads (worker goroutines) of a simulated process
// share one AddressSpace; that sharing is the source of the
// mprotect-strategy scaling pathology the paper analyzes.
type AddressSpace struct {
	cfg Config

	mu       sync.Mutex // the mmap_lock
	tree     vmaTree
	nextAddr uint64
	// freelist recycles backing slices by capacity to keep Go GC
	// churn from dominating the simulated kernel costs. Guarded by mu
	// (backing allocation is kernel work done under the lock).
	freelist map[uint64][][]byte

	threads  *obs.Gauge // active threads, for shootdown cost
	resident *obs.Gauge // bytes the "kernel" counts as used
	obs      *obs.Scope
	stats    Stats

	// aux stashes per-process singletons owned by higher layers that
	// vmm cannot import (e.g. the mem package's shared arena pool).
	auxMu sync.Mutex
	aux   map[string]any

	// inj is the process's fault injector (nil: no injection). Set
	// once before workers start; read lock-free on fault paths.
	inj atomic.Pointer[faultinject.Injector]
}

// Stats aggregates syscall and fault counters, registry-backed:
// every field is an obs counter registered under the address space's
// scope, so the same numbers appear in harness metric dumps and in
// StatsSnapshot compatibility views. All counters are lock-free.
type Stats struct {
	MmapCalls     *obs.Counter
	MunmapCalls   *obs.Counter
	MprotectCalls *obs.Counter
	MinorFaults   *obs.Counter // first-touch anonymous faults
	UffdFaults    *obs.Counter // faults resolved through userfaultfd
	SegvFaults    *obs.Counter // faults delivered as SIGSEGV
	DroppedFaults *obs.Counter // fault deliveries lost (injected)
	Shootdowns    *obs.Counter
	VMAsTouched   *obs.Counter
	THPPromotions *obs.Counter
	LockWaitNs    *obs.Counter // time spent waiting for the mmap lock
	LockHoldNs    *obs.Counter // time spent holding the mmap lock
	LockContended *obs.Counter // acquisitions that had to wait
	// LockWait is the wait-time distribution behind LockWaitNs.
	LockWait *obs.Histogram
	// CowForks counts mappings attached to a copy-on-write template
	// source; CowPagesCopied counts pages duplicated from one.
	CowForks       *obs.Counter
	CowPagesCopied *obs.Counter
	// Hostcalls counts guest→host boundary crossings (WASI calls).
	// The host boundary is the simulated process's syscall surface,
	// so the count lives with the other per-process kernel-interface
	// counters and flows through the same snapshot plumbing.
	Hostcalls *obs.Counter
}

// newStats registers the counters under sc.
func newStats(sc *obs.Scope) Stats {
	return Stats{
		MmapCalls:      sc.Counter("mmap_calls"),
		MunmapCalls:    sc.Counter("munmap_calls"),
		MprotectCalls:  sc.Counter("mprotect_calls"),
		MinorFaults:    sc.Counter("minor_faults"),
		UffdFaults:     sc.Counter("uffd_faults"),
		SegvFaults:     sc.Counter("segv_faults"),
		DroppedFaults:  sc.Counter("dropped_faults"),
		Shootdowns:     sc.Counter("shootdowns"),
		VMAsTouched:    sc.Counter("vmas_touched"),
		THPPromotions:  sc.Counter("thp_promotions"),
		LockWaitNs:     sc.Counter("lock_wait_ns"),
		LockHoldNs:     sc.Counter("lock_hold_ns"),
		LockContended:  sc.Counter("lock_contended"),
		LockWait:       sc.Histogram("lock_wait_hist_ns"),
		CowForks:       sc.Counter("cow_forks"),
		CowPagesCopied: sc.Counter("cow_pages_copied"),
		Hostcalls:      sc.Counter("hostcalls"),
	}
}

// StatsSnapshot is a plain-value copy of Stats.
type StatsSnapshot struct {
	MmapCalls, MunmapCalls, MprotectCalls int64
	MinorFaults, UffdFaults, SegvFaults   int64
	DroppedFaults                         int64
	Shootdowns, VMAsTouched               int64
	THPPromotions                         int64
	LockWaitNs, LockHoldNs, LockContended int64
	CowForks, CowPagesCopied              int64
	Hostcalls                             int64
	ResidentBytes                         int64
	VMACount                              int
}

// New creates an address space with the given configuration,
// applying defaults for zero fields. Its counters live in a private
// registry; use NewObserved to attach them to a shared one.
func New(cfg Config) *AddressSpace { return NewObserved(cfg, nil) }

// NewObserved creates an address space whose counters, gauges and
// spans register under the given scope (one scope per
// simulated process). A nil scope falls back to a private registry
// so Snapshot always works; the fallback is created without a trace
// ring (nobody drains a private ring, and span pushes would be pure
// overhead on every unobserved address space).
func NewObserved(cfg Config, sc *obs.Scope) *AddressSpace {
	if cfg.PageSize == 0 {
		cfg.PageSize = 4096
	}
	if sc == nil {
		sc = obs.NewRegistrySized(0).Scope("vmm")
	}
	return &AddressSpace{
		cfg:      cfg,
		nextAddr: mmapBase,
		freelist: make(map[uint64][][]byte),
		threads:  sc.Gauge("threads"),
		resident: sc.Gauge("resident_bytes"),
		obs:      sc,
		stats:    newStats(sc),
	}
}

// SetInjector installs the fault injector evaluated on this address
// space's syscall and fault paths. Passing nil disables injection.
// Install before workers start; the pointer is read lock-free.
func (as *AddressSpace) SetInjector(in *faultinject.Injector) { as.inj.Store(in) }

// Injector returns the installed fault injector (nil when none).
func (as *AddressSpace) Injector() *faultinject.Injector { return as.inj.Load() }

// Obs returns the address space's observation scope; higher layers
// (mem, core) hang their per-process metrics off it.
func (as *AddressSpace) Obs() *obs.Scope { return as.obs }

// Aux returns the per-address-space singleton stored under key,
// calling create under a lock to build it on first use. It lets
// higher layers (which vmm cannot import) attach one shared object —
// e.g. the mem package's default arena pool — to the process whose
// lifetime it must follow.
func (as *AddressSpace) Aux(key string, create func() any) any {
	as.auxMu.Lock()
	defer as.auxMu.Unlock()
	if as.aux == nil {
		as.aux = make(map[string]any)
	}
	v, ok := as.aux[key]
	if !ok {
		v = create()
		as.aux[key] = v
	}
	return v
}

// AddThread records a thread entering the simulated process; TLB
// shootdown costs scale with the number of active threads.
func (as *AddressSpace) AddThread() { as.threads.Add(1) }

// RemoveThread records a thread leaving the simulated process.
func (as *AddressSpace) RemoveThread() { as.threads.Add(-1) }

// lock acquires the mmap lock, recording wait time; the returned
// release function records hold time. parent attributes the wait: a
// contended acquisition retroactively emits a vma_lock_wait span
// under it (zero ref = root), so lock-queue time shows up as a child
// of the kernel operation that paid it.
func (as *AddressSpace) lock(parent obs.SpanRef) (release func()) {
	t0 := time.Now()
	as.mu.Lock()
	t1 := time.Now()
	wait := t1.Sub(t0)
	as.stats.LockWaitNs.Add(wait.Nanoseconds())
	as.stats.LockWait.Observe(wait.Nanoseconds())
	// A waiting acquisition implies the thread blocked and was
	// rescheduled: the context-switch proxy used when host counters
	// are unavailable.
	if wait > 500*time.Nanosecond {
		as.stats.LockContended.Add(1)
		as.obs.EndedSpan(obs.SpanVMALockWait, parent, wait.Nanoseconds())
	}
	return func() {
		as.stats.LockHoldNs.Add(time.Since(t1).Nanoseconds())
		as.mu.Unlock()
	}
}

// spin busy-waits for d, simulating kernel work that cannot be
// descheduled (it may be executed while holding the mmap lock).
func spin(d time.Duration) {
	if d <= 0 {
		return
	}
	t0 := time.Now()
	for time.Since(t0) < d {
	}
}

// shootdownLocked charges a TLB shootdown while the caller holds the
// mmap lock.
func (as *AddressSpace) shootdownLocked() {
	as.stats.Shootdowns.Add(1)
	threads := as.threads.Load()
	spin(as.cfg.ShootdownBase + time.Duration(threads)*as.cfg.ShootdownPerThread)
}

// Mapping is one simulated mmap'd region. The virtual reservation
// (Reserve bytes of address space) may exceed the backing prefix
// (Backing bytes with page state and data) — WebAssembly runtimes
// reserve the full 8 GiB addressable window but only the declared
// memory maximum can ever be accessed.
type Mapping struct {
	as      *AddressSpace
	addr    uint64
	reserve uint64
	backing uint64
	data    []byte
	pages   []atomic.Uint32 // per page of the backing prefix
	thp     []atomic.Uint32 // per THP block of the reservation
	uffd    atomic.Bool
	dead    atomic.Bool
	// src, when non-nil, is the copy-on-write origin: pages populate
	// from this frozen template image as they commit instead of from
	// the zero page (see cow.go). Atomic because pooled arenas have it
	// set/cleared across instance lifetimes while fault handlers read
	// it lock-free.
	src atomic.Pointer[PageSource]
	// spanParent is the ref (one word) of the span kernel operations
	// on this mapping parent under (see SetSpanParent). Atomic because fault handlers
	// (the uffd poll goroutine) read it from a different thread than
	// the invoker that set it.
	spanParent atomic.Int64
}

// SetSpanParent sets the span that subsequent kernel operations on
// this mapping (mprotect, uffd copy/decommit, munmap) report as their
// causal parent. Higher layers update it as context changes — the
// memory layer points it at the current invoke or fault span. A zero
// ref detaches (operations become root spans).
func (m *Mapping) SetSpanParent(ref obs.SpanRef) { m.spanParent.Store(ref.Word) }

// SpanParent returns the current causal parent for kernel operations.
func (m *Mapping) SpanParent() obs.SpanRef { return obs.SpanRef{Word: m.spanParent.Load()} }

// Mmap reserves reserve bytes of address space with backing bytes of
// accessible prefix at the given initial protection. prot applies to
// the backing prefix; the remainder of the reservation is PROT_NONE
// guard space.
func (as *AddressSpace) Mmap(reserve, backing uint64, prot Prot) (*Mapping, error) {
	return as.MmapTraced(reserve, backing, prot, obs.SpanRef{})
}

// MmapTraced is Mmap with an explicit causal parent for the
// kernel.mmap span (and any lock wait incurred acquiring the mmap
// lock). The new mapping's span parent starts as the same ref.
func (as *AddressSpace) MmapTraced(reserve, backing uint64, prot Prot, parent obs.SpanRef) (*Mapping, error) {
	if backing > reserve || backing == 0 {
		return nil, fmt.Errorf("vmm: bad mmap sizes: reserve=%d backing=%d", reserve, backing)
	}
	if err := as.inj.Load().Fail(faultinject.SiteMmap); err != nil {
		return nil, err
	}
	ps := as.cfg.PageSize
	reserve = roundUp(reserve, ps)
	backing = roundUp(backing, ps)

	sp := as.obs.StartSpan(obs.SpanKernelMmap, parent)
	defer sp.End()

	// The page table is simulator state, not kernel work (mmap(2)
	// allocates no PTEs), so it is built before the mmap lock is taken.
	// The zero value is an uncommitted ProtNone page; any other initial
	// protection is filled in with plain stores while the table is
	// still private to this call.
	pages := make([]atomic.Uint32, backing/ps)
	if prot != ProtNone {
		fillPages(pages, uint32(prot))
	}

	release := as.lock(sp.Ref())
	defer release()

	spin(as.cfg.MmapBase)
	as.stats.MmapCalls.Add(1)

	addr := as.tree.findGap(as.nextAddr, reserve)
	m := &Mapping{
		as:      as,
		addr:    addr,
		reserve: reserve,
		backing: backing,
		data:    as.takeBackingLocked(backing),
		pages:   pages,
	}
	if as.cfg.THPSize > 0 {
		m.thp = make([]atomic.Uint32, (reserve+as.cfg.THPSize-1)/as.cfg.THPSize)
	}
	m.spanParent.Store(parent.Word)
	if err := as.tree.insert(&vma{start: addr, end: addr + backing, prot: prot, mapping: m}); err != nil {
		return nil, err
	}
	if reserve > backing {
		if err := as.tree.insert(&vma{start: addr + backing, end: addr + reserve, prot: ProtNone, mapping: m}); err != nil {
			return nil, err
		}
	}
	as.stats.VMAsTouched.Add(2)
	return m, nil
}

// fillPages sets every entry of a page table no other goroutine can
// see yet, with plain stores: an atomic store per page (an XCHG on
// amd64) made mapping a large reservation cost more than the mmap it
// simulates.
func fillPages(pages []atomic.Uint32, state uint32) {
	raw := unsafe.Slice((*uint32)(unsafe.Pointer(unsafe.SliceData(pages))), len(pages))
	for i := range raw {
		raw[i] = state
	}
}

// takeBackingLocked recycles or allocates a zeroed backing slice.
// Recycled slices are zero because a byte of a backing can be non-zero
// only inside a committed page (see Data) and every path that drops a
// page's committed bit — Munmap, UffdDecommitPages — scrubs the page.
func (as *AddressSpace) takeBackingLocked(n uint64) []byte {
	if list := as.freelist[n]; len(list) > 0 {
		b := list[len(list)-1]
		as.freelist[n] = list[:len(list)-1]
		return b
	}
	return make([]byte, n)
}

// Munmap removes the mapping, flushing TLBs and recycling backing.
func (as *AddressSpace) Munmap(m *Mapping) error {
	if m.dead.Swap(true) {
		return errUnmapped
	}
	sp := as.obs.StartSpan(obs.SpanKernelMunmap, m.SpanParent())
	defer sp.End()
	release := as.lock(sp.Ref())
	defer release()

	spin(as.cfg.MmapBase)
	as.stats.MunmapCalls.Add(1)

	// Remove every node of this mapping's reservation; mprotect may
	// have split the original two into many. Only the reservation's own
	// address range is searched, so teardown does not scale with the
	// number of live mappings in the process.
	var starts []uint64
	as.tree.walkRange(m.addr, m.addr+m.reserve, func(v *vma) bool {
		starts = append(starts, v.start)
		return true
	})
	for _, s := range starts {
		as.tree.remove(s)
	}
	as.stats.VMAsTouched.Add(int64(len(starts)))

	// Return committed memory to the pool, scrubbing it on the way: the
	// recycled backing must read as zero-filled pages, exactly as the
	// kernel guarantees for a new mmap, and only committed pages can
	// hold anything else. Teardown therefore costs what the mapping
	// touched, not what it reserved — as zap_pte_range does.
	freed := int64(0)
	ps := as.cfg.PageSize
	for p := range m.pages {
		if m.pages[p].Load()&pageCommitted != 0 {
			off := uint64(p) * ps
			clear(m.data[off : off+ps])
			freed += int64(ps)
		}
	}
	if as.cfg.THPSize > 0 {
		for i := range m.thp {
			if m.thp[i].Load() != 0 {
				freed += int64(as.cfg.THPSize) - int64(as.thpCommittedPages(m, i))*int64(ps)
			}
		}
	}
	as.resident.Add(-freed)

	as.freelist[m.backing] = append(as.freelist[m.backing], m.data)
	m.data = nil

	as.shootdownLocked()
	return nil
}

// thpCommittedPages counts committed base pages inside THP block i
// (they were already accounted before the block promoted).
func (as *AddressSpace) thpCommittedPages(m *Mapping, block int) int64 {
	ps := as.cfg.PageSize
	perBlock := as.cfg.THPSize / ps
	start := uint64(block) * perBlock
	end := min(start+perBlock, uint64(len(m.pages)))
	var n int64
	for p := start; p < end; p++ {
		if m.pages[p].Load()&pageCommitted != 0 {
			n++
		}
	}
	return n
}

// Mprotect changes the protection of [off, off+length) within the
// mapping's backing prefix. Like the kernel implementation it takes
// the process-wide mmap lock, splits and merges VMA nodes, walks the
// affected PTEs and performs a TLB shootdown — all while holding the
// lock. Setting ProtRW commits the pages (the runtime's grow path
// relies on this, as mprotect-managed wasm memories do).
func (m *Mapping) Mprotect(off, length uint64, prot Prot) error {
	if m.dead.Load() {
		return errUnmapped
	}
	as := m.as
	ps := as.cfg.PageSize
	off = roundDown(off, ps)
	length = roundUp(length, ps)
	if off+length > m.backing {
		return fmt.Errorf("%w: mprotect [%d,%d) backing %d", errBadRange, off, off+length, m.backing)
	}
	if err := as.inj.Load().Fail(faultinject.SiteMprotect); err != nil {
		return err
	}

	sp := as.obs.StartSpan(obs.SpanKernelMprotect, m.SpanParent())
	defer sp.End()
	release := as.lock(sp.Ref())
	defer release()

	as.stats.MprotectCalls.Add(1)
	touched, err := as.tree.protRange(m.addr+off, m.addr+off+length, prot)
	if err != nil {
		return err
	}
	as.stats.VMAsTouched.Add(int64(touched))

	pages := length / ps
	spin(time.Duration(pages) * as.cfg.MprotectPerPage)
	first := off / ps
	for p := first; p < first+pages; p++ {
		old := m.pages[p].Load()
		state := uint32(prot)
		if prot&protWrite != 0 || old&pageCommitted != 0 {
			state |= pageCommitted
		}
		if old&pageCommitted == 0 && state&pageCommitted != 0 {
			// CoW break: duplicate the template page before the commit
			// becomes visible (we hold the mmap lock here, as the real
			// wp-fault path holds the PTE lock).
			m.populateFromSource(p)
		}
		m.pages[p].Store(state)
		if old&pageCommitted == 0 && state&pageCommitted != 0 {
			m.accountCommit(p)
		}
	}
	as.shootdownLocked()
	return nil
}

// accountCommit updates resident-set accounting for a newly
// committed page, modelling transparent-huge-page promotion: the
// first commit inside an eligible THP-aligned block causes the
// kernel to back the whole block with a huge page, removing THPSize
// bytes from the available pool (paper §4.3).
func (m *Mapping) accountCommit(page uint64) {
	as := m.as
	ps := as.cfg.PageSize
	if as.cfg.THPSize == 0 {
		as.resident.Add(int64(ps))
		return
	}
	block := page * ps / as.cfg.THPSize
	blockEnd := (block + 1) * as.cfg.THPSize
	if blockEnd <= m.reserve {
		if m.thp[block].CompareAndSwap(0, 1) {
			as.stats.THPPromotions.Add(1)
			as.resident.Add(int64(as.cfg.THPSize))
			return
		}
		if m.thp[block].Load() != 0 {
			return // block already resident
		}
	}
	as.resident.Add(int64(ps))
}

// FaultKind classifies a simulated page fault.
type FaultKind int

// Fault outcomes.
const (
	// FaultResolved: the page is present with sufficient permission;
	// another thread fixed it first (spurious fault).
	FaultResolved FaultKind = iota
	// FaultSegv: access to a non-present or insufficiently protected
	// page in a non-uffd region — delivered as SIGSEGV.
	FaultSegv
	// FaultUffd: missing page in a userfaultfd-registered region —
	// delivered to the registered handler (SIGBUS mode).
	FaultUffd
	// FaultDropped: the simulated kernel lost the fault delivery
	// (injected only); the accessing thread must re-fault.
	FaultDropped
)

// Fault simulates the MMU/kernel fault path for an access at byte
// offset off. It is lock-free: it reads the page state and the
// mapping's uffd registration only.
func (m *Mapping) Fault(off uint64, write bool) FaultKind {
	if m.as.inj.Load().Should(faultinject.SiteFaultDrop) {
		m.as.stats.DroppedFaults.Add(1)
		return FaultDropped
	}
	if m.dead.Load() || off >= m.backing {
		m.as.stats.SegvFaults.Add(1)
		return FaultSegv
	}
	ps := m.as.cfg.PageSize
	state := m.pages[off/ps].Load()
	need := uint32(protRead)
	if write {
		need = uint32(protWrite)
	}
	if state&pageCommitted != 0 && state&need != 0 {
		return FaultResolved
	}
	if m.uffd.Load() {
		m.as.stats.UffdFaults.Add(1)
		return FaultUffd
	}
	m.as.stats.SegvFaults.Add(1)
	return FaultSegv
}

// RegisterUffd registers the mapping with the simulated userfaultfd.
// Registration itself is a syscall taking the mmap lock briefly (as
// UFFDIO_REGISTER does), but subsequent fault handling is lock-free.
func (m *Mapping) RegisterUffd() error {
	if m.dead.Load() {
		return errUnmapped
	}
	release := m.as.lock(m.SpanParent())
	spin(m.as.cfg.MmapBase)
	release()
	m.uffd.Store(true)
	return nil
}

// UffdZeroPages resolves missing-page faults for [off, off+length)
// by installing zero pages, as UFFDIO_ZEROPAGE does. Only per-page
// atomic state is touched: the mmap lock is never taken, so
// concurrent handlers on distinct pages proceed in parallel.
func (m *Mapping) UffdZeroPages(off, length uint64) error {
	if !m.uffd.Load() {
		return errNotUffd
	}
	if m.dead.Load() {
		return errUnmapped
	}
	ps := m.as.cfg.PageSize
	off = roundDown(off, ps)
	length = roundUp(length, ps)
	if off+length > m.backing {
		return fmt.Errorf("%w: uffd zero [%d,%d) backing %d", errBadRange, off, off+length, m.backing)
	}
	inj := m.as.inj.Load()
	inj.DelayIf(faultinject.SiteUffdDelay)
	if err := inj.Fail(faultinject.SiteUffdZero); err != nil {
		return err
	}
	sp := m.as.obs.StartSpan(obs.SpanUffdCopy, m.SpanParent())
	defer sp.End()
	first := off / ps
	for p := first; p < first+length/ps; p++ {
		for {
			old := m.pages[p].Load()
			if old&pageCommitted != 0 {
				break // another handler populated it
			}
			// Install content before publishing the committed bit —
			// UFFDIO_COPY's order. For template forks this copies the
			// source page; plain arenas install the (already zeroed)
			// zero page for free.
			m.populateFromSource(p)
			if m.pages[p].CompareAndSwap(old, uint32(ProtRW)|pageCommitted) {
				m.accountCommit(p)
				break
			}
		}
	}
	return nil
}

// UffdDecommitPages releases committed pages in [off, off+length)
// back to missing state, as MADV_DONTNEED/UFFDIO_UNREGISTER-based
// arena recycling does: a released page's contents are gone, and it
// reads as zeros when next populated. Lock-free: per-page CAS only,
// with the scrub ahead of the CAS so a page is never both missing and
// dirty. Pages inside a promoted THP block stay accounted resident
// (the kernel does not split huge pages eagerly); other pages return
// to the pool.
func (m *Mapping) UffdDecommitPages(off, length uint64) error {
	if !m.uffd.Load() {
		return errNotUffd
	}
	if m.dead.Load() {
		return errUnmapped
	}
	ps := m.as.cfg.PageSize
	off = roundDown(off, ps)
	length = roundUp(length, ps)
	if off+length > m.backing {
		return fmt.Errorf("%w: uffd decommit [%d,%d) backing %d", errBadRange, off, off+length, m.backing)
	}
	if err := m.as.inj.Load().Fail(faultinject.SiteUffdZero); err != nil {
		return err
	}
	sp := m.as.obs.StartSpan(obs.SpanUffdDecommit, m.SpanParent())
	defer sp.End()
	thp := m.as.cfg.THPSize
	first := off / ps
	for p := first; p < first+length/ps; p++ {
		for {
			old := m.pages[p].Load()
			if old&pageCommitted == 0 {
				break
			}
			clear(m.data[p*ps : (p+1)*ps])
			if m.pages[p].CompareAndSwap(old, 0) {
				inPromoted := false
				if thp > 0 {
					block := p * ps / thp
					if int(block) < len(m.thp) && m.thp[block].Load() != 0 {
						inPromoted = true
					}
				}
				if !inPromoted {
					m.as.resident.Add(-int64(ps))
				}
				break
			}
		}
	}
	// Demote huge pages whose base pages are now entirely absent:
	// the kernel splits and frees THP-backed ranges on
	// MADV_DONTNEED, so a fully-decommitted block returns to the
	// pool.
	if thp > 0 {
		firstBlock := off / thp
		lastBlock := (off + length - 1) / thp
		for b := firstBlock; b <= lastBlock && int(b) < len(m.thp); b++ {
			if m.thp[b].Load() == 0 {
				continue
			}
			if m.as.thpCommittedPages(m, int(b)) == 0 &&
				m.thp[b].CompareAndSwap(1, 0) {
				m.as.resident.Add(-int64(thp))
			}
		}
	}
	return nil
}

// Touch simulates first-touch anonymous-memory faults for an
// eagerly RW-mapped region: pages become committed without the mmap
// lock (the kernel fault path takes it in shared mode only).
func (m *Mapping) Touch(off, length uint64) error {
	if m.dead.Load() {
		return errUnmapped
	}
	ps := m.as.cfg.PageSize
	// Every page the byte range overlaps: round the end, not the
	// length, so an unaligned range that straddles a page boundary
	// commits both pages.
	end := roundUp(off+length, ps)
	off = roundDown(off, ps)
	if end < off || end > m.backing {
		return fmt.Errorf("%w: touch [%d,%d) backing %d", errBadRange, off, end, m.backing)
	}
	for p := off / ps; p < end/ps; p++ {
		for {
			old := m.pages[p].Load()
			if old&pageCommitted != 0 {
				break
			}
			if old&uint32(protWrite) == 0 {
				return fmt.Errorf("%w: touch of non-writable page %d", errBadRange, p)
			}
			m.populateFromSource(p)
			if m.pages[p].CompareAndSwap(old, old|pageCommitted) {
				m.as.stats.MinorFaults.Add(1)
				m.accountCommit(p)
				break
			}
		}
	}
	return nil
}

// CheckAccess verifies that [off, off+n) is accessible with the
// given mode according to page state. Tests hold the layers above to
// the simulated MMU with it; the fast path of execution does not call
// it.
func (m *Mapping) CheckAccess(off, n uint64, write bool) error {
	if m.dead.Load() {
		return errUnmapped
	}
	if off+n > m.backing || off+n < off {
		return fmt.Errorf("%w: access [%d,%d)", errBadRange, off, off+n)
	}
	ps := m.as.cfg.PageSize
	need := uint32(protRead) | pageCommitted
	if write {
		need = uint32(protWrite) | pageCommitted
	}
	for p := off / ps; p <= (off+n-1)/ps; p++ {
		if state := m.pages[p].Load(); state&need != need {
			return fmt.Errorf("vmm: page %d not accessible (state %#x, need %#x)", p, state, need)
		}
	}
	return nil
}

// Munmap removes this mapping from its address space.
func (m *Mapping) Munmap() error { return m.as.Munmap(m) }

// AddressSpace returns the owning address space.
func (m *Mapping) AddressSpace() *AddressSpace { return m.as }

// PageSize returns the base page size of the owning address space.
func (m *Mapping) PageSize() uint64 { return m.as.cfg.PageSize }

// CommittedPrefix returns the length in bytes of the contiguous
// committed run starting at byte offset from (which must be
// page-aligned or is rounded down), measured from offset zero: the
// returned value is the smallest offset >= from whose page is not
// committed, capped at the backing length.
func (m *Mapping) CommittedPrefix(from uint64) uint64 {
	ps := m.as.cfg.PageSize
	p := from / ps
	for p < uint64(len(m.pages)) && m.pages[p].Load()&pageCommitted != 0 {
		p++
	}
	return min(p*ps, m.backing)
}

// Data returns the backing bytes of the accessible prefix. Callers
// (the linear-memory layer) enforce their own bounds discipline; the
// simulated MMU state is advisory for them exactly as real page
// tables are invisible to generated code — with one contract: write a
// page only after committing it (Touch, Mprotect to a writable
// protection, UffdZeroPages). Uncommitted pages read as zeros, and
// Munmap and UffdDecommitPages scrub committed pages only, so a write
// to an uncommitted page would leak into the next mapping that
// recycles this backing.
func (m *Mapping) Data() []byte { return m.data }

// Backing returns the accessible prefix length in bytes.
func (m *Mapping) Backing() uint64 { return m.backing }

// CommittedBytes counts committed base pages (ignoring THP blocks).
func (m *Mapping) CommittedBytes() uint64 {
	var n uint64
	for i := range m.pages {
		if m.pages[i].Load()&pageCommitted != 0 {
			n += m.as.cfg.PageSize
		}
	}
	return n
}

// ResidentBytes returns the simulated process resident-set size.
func (as *AddressSpace) ResidentBytes() int64 { return as.resident.Load() }

// Snapshot returns a copy of all counters.
func (as *AddressSpace) Snapshot() StatsSnapshot {
	as.mu.Lock()
	vmaCount := as.tree.count
	as.mu.Unlock()
	return StatsSnapshot{
		MmapCalls:      as.stats.MmapCalls.Load(),
		MunmapCalls:    as.stats.MunmapCalls.Load(),
		MprotectCalls:  as.stats.MprotectCalls.Load(),
		MinorFaults:    as.stats.MinorFaults.Load(),
		UffdFaults:     as.stats.UffdFaults.Load(),
		SegvFaults:     as.stats.SegvFaults.Load(),
		DroppedFaults:  as.stats.DroppedFaults.Load(),
		Shootdowns:     as.stats.Shootdowns.Load(),
		VMAsTouched:    as.stats.VMAsTouched.Load(),
		THPPromotions:  as.stats.THPPromotions.Load(),
		LockWaitNs:     as.stats.LockWaitNs.Load(),
		LockHoldNs:     as.stats.LockHoldNs.Load(),
		LockContended:  as.stats.LockContended.Load(),
		CowForks:       as.stats.CowForks.Load(),
		CowPagesCopied: as.stats.CowPagesCopied.Load(),
		Hostcalls:      as.stats.Hostcalls.Load(),
		ResidentBytes:  as.resident.Load(),
		VMACount:       vmaCount,
	}
}

// counters lists the fields that count events — every field but the
// two levels, ResidentBytes and VMACount.
func (s *StatsSnapshot) counters() []*int64 {
	return []*int64{
		&s.MmapCalls, &s.MunmapCalls, &s.MprotectCalls,
		&s.MinorFaults, &s.UffdFaults, &s.SegvFaults, &s.DroppedFaults,
		&s.Shootdowns, &s.VMAsTouched, &s.THPPromotions,
		&s.LockWaitNs, &s.LockHoldNs, &s.LockContended,
		&s.CowForks, &s.CowPagesCopied, &s.Hostcalls,
	}
}

// Add returns s + o: the totals over several simulated processes,
// whose resident sets and VMA counts add up like their counters do.
func (s StatsSnapshot) Add(o StatsSnapshot) StatsSnapshot {
	oc := o.counters()
	for i, c := range s.counters() {
		*c += *oc[i]
	}
	s.ResidentBytes += o.ResidentBytes
	s.VMACount += o.VMACount
	return s
}

// Sub returns what the counters gained between the snapshot earlier
// and s; the levels keep the value they have in s.
func (s StatsSnapshot) Sub(earlier StatsSnapshot) StatsSnapshot {
	ec := earlier.counters()
	for i, c := range s.counters() {
		*c -= *ec[i]
	}
	return s
}

// CountHostcall records one guest→host boundary crossing; core's
// host dispatch calls it on every imported-function invocation.
func (as *AddressSpace) CountHostcall() { as.stats.Hostcalls.Inc() }

// CheckInvariants validates the VMA tree; used by tests.
func (as *AddressSpace) CheckInvariants() error {
	as.mu.Lock()
	defer as.mu.Unlock()
	return as.tree.checkInvariants()
}

func roundUp(v, to uint64) uint64   { return (v + to - 1) / to * to }
func roundDown(v, to uint64) uint64 { return v / to * to }
