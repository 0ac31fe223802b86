// Package mem implements WebAssembly linear memory with the five
// bounds-checking strategies evaluated by the paper (§3.1):
//
//	none      entire addressable window mapped read-write, no checks;
//	          pages past the memory size commit on first touch
//	clamp     out-of-bounds addresses clamped to the memory end
//	trap      explicit compare-and-trap on every access
//	mprotect  PROT_NONE reservation; faults resolved by mprotect(2)
//	          under the process-wide mmap lock
//	uffd      userfaultfd-registered reservation; faults resolved by
//	          lock-free per-page population, with arenas recycled
//	          through a hazard-pointer pool
//
// Engines funnel every load and store through a Memory. The fast
// path is the same for all five strategies: a single watermark
// compare (the simulator's stand-in for the hardware MMU, which
// performs this check for free on real silicon). The strategies
// differ in what the watermark covers and in what a miss does —
// first-touch commit (none), redirect (clamp), trap, or a fault
// resolved by mprotect or uffd — and the engines charge the software
// strategies' explicit check sequence in the cycle model.
//
// One rule ties this package to vmm's recycling: a byte of a backing
// is written only inside a committed page (vmm.Mapping.Data), so
// teardown scrubs committed pages and nothing else. Every strategy's
// watermark therefore lies inside the committed prefix.
package mem

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"

	"leapsandbounds/internal/faultinject"
	"leapsandbounds/internal/obs"
	"leapsandbounds/internal/trap"
	"leapsandbounds/internal/vmm"
	"leapsandbounds/internal/wasm"
)

// Strategy selects a bounds-checking mechanism.
type Strategy uint8

// The five strategies, in the paper's order.
const (
	None Strategy = iota
	Clamp
	Trap
	Mprotect
	Uffd
)

var strategyNames = [...]string{"none", "clamp", "trap", "mprotect", "uffd"}

func (s Strategy) String() string {
	if int(s) < len(strategyNames) {
		return strategyNames[s]
	}
	return fmt.Sprintf("strategy(%d)", uint8(s))
}

// MarshalText encodes the strategy by name (for JSON results).
func (s Strategy) MarshalText() ([]byte, error) {
	return []byte(s.String()), nil
}

// ParseStrategy resolves a strategy name.
func ParseStrategy(name string) (Strategy, error) {
	for i, n := range strategyNames {
		if n == name {
			return Strategy(i), nil
		}
	}
	return 0, fmt.Errorf("mem: unknown bounds-checking strategy %q", name)
}

// Strategies lists all strategies in paper order.
func Strategies() []Strategy { return []Strategy{None, Clamp, Trap, Mprotect, Uffd} }

// IsSoftware reports whether the strategy inserts explicit check
// code at every access (clamp, trap).
func (s Strategy) IsSoftware() bool { return s == Clamp || s == Trap }

// Reserve is the virtual reservation per memory: the full 8 GiB
// window addressable by base+offset arithmetic on 32-bit operands
// (paper §2.3).
const Reserve = 8 << 30

// Config describes one memory instantiation.
type Config struct {
	Strategy Strategy
	// AS is the simulated process address space shared by all
	// instances in the same process.
	AS *vmm.AddressSpace
	// MinPages and MaxPages are the wasm limits (64 KiB pages).
	// MaxPages bounds the backing allocation; it must be set.
	MinPages, MaxPages uint32
	// Pool recycles uffd arenas; required for the Uffd strategy
	// unless DisablePool is set.
	Pool *ArenaPool
	// DisablePool runs the Uffd strategy without arena recycling:
	// every instance mmaps and registers its own reservation and
	// unmaps it on Close. This is the ablation showing that the
	// paper's mitigation is the combination of userfaultfd (lock-free
	// faults) and userspace arena management (no mmap/munmap churn):
	// uffd alone still pays the mmap-lock cost at instance setup.
	DisablePool bool
	// EagerCommit makes the Mprotect strategy commit memory with a
	// single mprotect(2) call at instantiation and at every grow,
	// instead of lazily committing page-by-page from the SIGSEGV
	// handler. Real runtimes take this variant (one syscall per
	// resize, a larger critical section each time); the paper's
	// description of the strategy is the lazy variant. Both share
	// the mmap-lock serialization the paper analyzes.
	EagerCommit bool
	// UffdPoll delivers uffd faults through a dedicated handler
	// thread (the userfaultfd poll mode) instead of resolving them
	// on the faulting thread (SIGBUS mode, the paper's choice).
	// Every fault then costs a cross-thread round trip — the
	// latency the paper's footnote 2 cites as the reason to prefer
	// SIGBUS delivery.
	UffdPoll bool
	// Shared marks the memory as a wasm-threads-style shared linear
	// memory: many instances (one per worker thread) attach to it and
	// access it concurrently. Grow serializes on an internal mutex and
	// publishes the new length with release ordering per strategy (see
	// Grow); plain accessors stay the single-watermark fast path and
	// are safe for concurrent use at disjoint addresses; there are no
	// atomic accessors (no engine decodes the 0xFE opcodes), so racing
	// same-address traffic is unordered.
	// Shared memories refuse Snapshot (and therefore template forks).
	Shared bool
	// Span is the causal parent for spans emitted during
	// instantiation (kernel.mmap, pool.get) and, until SetSpanParent
	// repoints it, for subsequent kernel work on the mapping. Zero
	// means root / untraced.
	Span obs.SpanRef
}

// Memory is one instance's linear memory. A private memory (the
// default) is not safe for concurrent use: each wasm instance owns
// one, as the paper's isolates do. A memory created with
// Config.Shared is attached to many instances at once; its size
// bookkeeping is atomic, Grow serializes internally, and plain
// accessors are safe at thread-disjoint addresses only.
type Memory struct {
	strategy Strategy
	data     []byte
	// sizeBytes is the wasm-visible memory size. Atomic because a
	// shared memory's grower publishes it while sibling workers load
	// it on their slow paths (and via SizeBytes/memory.size).
	sizeBytes atomic.Uint64
	// fastLimit is the fast-path watermark: accesses at or below it
	// proceed with no further checks. It never exceeds the committed
	// contiguous prefix of the mapping: sizeBytes for clamp/trap (whose
	// whole size is committed at instantiation and grow), the committed
	// prefix capped at sizeBytes for mprotect/uffd, and the committed
	// prefix uncapped for none, where a stray access past sizeBytes
	// commits its page on the miss path and succeeds. Atomic for the
	// same reason as sizeBytes; on amd64/arm64 the Load compiles to a
	// plain move, so the fast path stays a single compare.
	fastLimit atomic.Uint64
	// committedEnd tracks the highest byte this instance has caused
	// to be committed (fault path), which may exceed fastLimit when
	// commits are scattered; arena recycling clears up to it.
	// Advanced by CAS-max: concurrent fault handlers race to raise it.
	committedEnd atomic.Uint64
	maxBytes     uint64
	minBytes     uint64
	// gen counts grows. A HostMemView handed to the embedder records
	// the generation it was validated against; a mismatch after a
	// mid-hostcall memory.grow tells the view its window may be stale
	// (the backing array can move or extend) and it must revalidate
	// before further use.
	gen     atomic.Uint64
	mapping *vmm.Mapping
	pool    *ArenaPool
	arena   *arena // non-nil when pooled (uffd)
	poll    *uffdServer
	eager   bool // mprotect strategy: commit at grow time
	closed  bool
	// shared marks a wasm-threads-style shared memory (Config.Shared):
	// growMu serializes Grow against concurrent growers, and Grow
	// orders page commits before the length publication so a sibling
	// that observes the new size finds its pages already backed.
	shared bool
	growMu sync.Mutex

	// ptr caches the base of the backing array for the unchecked
	// accessors: a raw-pointer load skips both the watermark compare
	// and Go's slice bounds check, which is the entire point of the
	// elision fast path. Valid for the lifetime of the mapping.
	ptr unsafe.Pointer

	// obs is the per-strategy scope under the owning process
	// ("<proc>/mem/<strategy>"); grow and slow-path fault commits are
	// counted here so figures can attribute management cost per
	// strategy (the raw syscall/fault counters stay in vmm).
	obs          *obs.Scope
	growCalls    *obs.Counter
	faultCommits *obs.Counter
	// faultPages counts pages spanned by each fault-path commit, so
	// figures can report pages populated per fault invocation (bulk
	// operations commit whole ranges with a single fault).
	faultPages *obs.Counter

	// inj is the process fault injector captured at instantiation
	// (nil outside chaos runs); the fault path consults it to retry
	// transient failures and count recoveries.
	inj *faultinject.Injector
}

// faultMaxAttempts bounds the fault-path retry loop: a transient
// commit failure or dropped fault delivery is retried with backoff up
// to this many times before surfacing as a trap.Injected.
const faultMaxAttempts = 8

// New instantiates a zero-filled linear memory per the configuration:
// a fork of the empty image.
func New(cfg Config) (*Memory, error) {
	if cfg.MaxPages == 0 || cfg.MaxPages > wasm.MaxPages || cfg.MinPages > cfg.MaxPages {
		return nil, fmt.Errorf("mem: bad page limits min=%d max=%d", cfg.MinPages, cfg.MaxPages)
	}
	minBytes := uint64(cfg.MinPages) * wasm.PageSize
	return newMemory(cfg, &Snapshot{
		sizeBytes: minBytes,
		minBytes:  minBytes,
		maxBytes:  uint64(cfg.MaxPages) * wasm.PageSize,
	})
}

// newMemory is the one constructor body behind New and
// NewFromSnapshot. from carries the geometry (size, min, max) and the
// page image the mapping populates from as pages commit; a nil image
// is the zero page, i.e. a fresh memory. A strategy lays a fresh and
// a forked mapping out the same way:
//
//	none/clamp/trap  RW mapping, touched over the full size up front
//	                 (a fork duplicates every source page here: the
//	                 whole window is writable, so the copy cannot be
//	                 deferred)
//	mprotect         PROT_NONE reservation; faults commit (and, for a
//	                 fork, duplicate) pages lazily, or one mprotect
//	                 commits the whole size under EagerCommit
//	uffd             a pooled arena, pointed at the image for a fork;
//	                 without a pool, its own registered reservation
func newMemory(cfg Config, from *Snapshot) (*Memory, error) {
	if cfg.AS == nil {
		return nil, fmt.Errorf("mem: Config.AS is required")
	}
	if cfg.Strategy > Uffd {
		return nil, fmt.Errorf("mem: unknown strategy %v", cfg.Strategy)
	}
	sc := cfg.AS.Obs().Child("mem").Child(cfg.Strategy.String())
	m := &Memory{
		strategy:     cfg.Strategy,
		minBytes:     from.minBytes,
		maxBytes:     from.maxBytes,
		shared:       cfg.Shared,
		obs:          sc,
		growCalls:    sc.Counter("grows"),
		faultCommits: sc.Counter("fault_commits"),
		faultPages:   sc.Counter("fault_pages"),
		inj:          cfg.AS.Injector(),
	}
	size := from.sizeBytes
	m.sizeBytes.Store(size)
	if from.src != nil {
		sc.Counter("forks").Inc()
	}
	var degraded bool
	var degradedAt faultinject.Site
	if cfg.Strategy == Uffd && !cfg.DisablePool {
		if cfg.Pool == nil {
			return nil, fmt.Errorf("mem: the uffd strategy requires an arena pool")
		}
		a, err := cfg.Pool.get(cfg.AS, m.maxBytes, cfg.Span)
		if err == nil {
			if from.src != nil {
				// The borrowed arena becomes a fork: its decommitted pages
				// now populate from the template image. pool.put clears the
				// source before the arena is parked, so recycling stays
				// zero-fill for the next plain instance.
				a.mapping.SetSource(from.src)
			}
			m.arena = a
			m.pool = cfg.Pool
			if cfg.UffdPoll {
				// Pooled memories, forks included, share the pool's one
				// handler thread; none spawns a second poller.
				m.poll = cfg.Pool.pollServer
			}
			m.adopt(a.mapping)
			return m, nil
		}
		// Pool exhausted (injected): degrade to a lazy mprotect mapping
		// rather than failing the instantiation. Trap semantics are
		// identical — both virtual-memory strategies fault and commit
		// lazily — so the degradation is invisible to the guest.
		if degradedAt, degraded = faultinject.IsTransient(err); !degraded {
			return nil, err
		}
	}
	prot := vmm.ProtNone
	if cfg.Strategy <= Trap {
		prot = vmm.ProtRW
	}
	mp, err := cfg.AS.MmapCoWTraced(Reserve, m.maxBytes, prot, from.src, cfg.Span)
	if err != nil {
		return nil, err
	}
	switch {
	case degraded:
		m.strategy = Mprotect
		sc.Counter("uffd_fallbacks").Inc()
		m.inj.Recovered(degradedAt)
	case cfg.Strategy <= Trap:
		if size > 0 {
			err = mp.Touch(0, size)
		}
		m.fastLimit.Store(size)
	case cfg.Strategy == Mprotect:
		m.eager = cfg.EagerCommit
		if m.eager && size > 0 {
			err = m.mprotectRetry(mp, 0, size)
			m.fastLimit.Store(size)
		}
	default: // pool-less uffd
		if err = mp.RegisterUffd(); err == nil && cfg.UffdPoll {
			// Pool-less instances own their handler thread.
			m.poll = newUffdServer()
		}
	}
	if err != nil {
		_ = mp.Munmap()
		return nil, err
	}
	m.adopt(mp)
	return m, nil
}

// adopt installs mp as the memory's backing.
func (m *Memory) adopt(mp *vmm.Mapping) {
	m.mapping = mp
	m.data = mp.Data()
	if len(m.data) > 0 {
		m.ptr = unsafe.Pointer(&m.data[0])
	}
}

// Close releases the memory: pooled arenas are recycled, everything
// else is unmapped.
func (m *Memory) Close() error {
	if m.closed {
		return nil
	}
	m.closed = true
	if m.arena != nil {
		return m.pool.put(m.arena, max(m.fastLimit.Load(), m.committedEnd.Load()))
	}
	if m.poll != nil {
		// Instance-owned handler thread (pool-less poll mode).
		m.poll.close()
	}
	return m.mapping.Munmap()
}

// SetSpanParent repoints the causal parent of kernel work this
// memory causes from now on — fault-path commits, grow mprotects,
// arena recycling at Close. Higher layers call it at context
// boundaries: core points it at the invoke span on entry and back at
// the instance's span on exit, so a trace attributes each fault to
// the invocation that triggered it. Zero detaches.
func (m *Memory) SetSpanParent(ref obs.SpanRef) {
	if m.mapping != nil {
		m.mapping.SetSpanParent(ref)
	}
}

// Strategy returns the memory's bounds-checking strategy.
func (m *Memory) Strategy() Strategy { return m.strategy }

// Shared reports whether this is a wasm-threads-style shared memory.
func (m *Memory) Shared() bool { return m.shared }

// SizeBytes returns the current wasm-visible size in bytes.
func (m *Memory) SizeBytes() uint64 { return m.sizeBytes.Load() }

// SizePages returns the current size in wasm pages.
func (m *Memory) SizePages() uint32 { return uint32(m.sizeBytes.Load() / wasm.PageSize) }

// Generation returns the grow generation: it advances on every
// successful Grow. Host-boundary code captures it when validating a
// memory window and compares on re-entry — an unchanged generation
// proves the window's range check still holds.
func (m *Memory) Generation() uint64 { return m.gen.Load() }

// storeMax raises a to at least v (CAS loop; concurrent raisers are
// all monotone, so the maximum wins).
func storeMax(a *atomic.Uint64, v uint64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Grow grows the memory by delta pages, returning the previous size
// in pages, or -1 if the limit would be exceeded. The management
// cost is strategy-specific: the flat strategies commit eagerly,
// mprotect defers to faults (the paper's default runtimes resize
// with mprotect, which the fault path performs under the process
// lock), and uffd only moves the atomic size watermark.
//
// On a shared memory Grow serializes on an internal mutex and
// publishes in commit-then-length order:
//
//	none/clamp/trap  touch-commit the new pages, raise fastLimit,
//	                 then store sizeBytes — a sibling that observes
//	                 the new size (memory.size, slow-path recheck)
//	                 finds its pages already backed and its watermark
//	                 already raised;
//	mprotect         publish the length only; sibling accesses fault
//	                 and remap under the real VMA lock (the paper's
//	                 contention case), or one eager mprotect runs
//	                 under that lock here when EagerCommit is set;
//	uffd             publish the length only; the arena's userfaultfd
//	                 registration spans the whole reservation, so no
//	                 remap or reregistration happens — sibling faults
//	                 populate lock-free (pool deployments keep
//	                 resolving through the existing pollServer).
func (m *Memory) Grow(delta uint32) int32 {
	if m.shared {
		m.growMu.Lock()
		defer m.growMu.Unlock()
	}
	prev := m.sizeBytes.Load()
	old := uint32(prev / wasm.PageSize)
	newBytes := prev + uint64(delta)*wasm.PageSize
	if newBytes > m.maxBytes {
		return -1
	}
	if m.inj.GrowFail(uint32(newBytes / wasm.PageSize)) {
		// Injected commit pressure: grow fails even though the wasm
		// limit allows it, exactly as a real allocator under memory
		// pressure does. Spec-visible (grow returns -1), so only
		// enabled by plans that opt into SiteGrow.
		return -1
	}
	m.growCalls.Inc()
	switch m.strategy {
	case None, Clamp, Trap:
		if err := m.mapping.Touch(prev, newBytes-prev); err != nil {
			trap.Throwf(trap.MemoryLimit, "grow: %v", err)
		}
		storeMax(&m.fastLimit, newBytes)
	case Mprotect:
		if m.eager {
			if err := m.mprotectRetry(m.mapping, prev, newBytes-prev); err != nil {
				trap.Throwf(trap.MemoryLimit, "grow: %v", err)
			}
			storeMax(&m.fastLimit, newBytes)
			storeMax(&m.committedEnd, newBytes)
			break
		}
		// Lazy: pages commit on first fault.
	case Uffd:
		// Lazy: pages commit on first fault.
	}
	m.gen.Add(1)
	m.sizeBytes.Store(newBytes)
	return int32(old)
}

// load fast paths. Addresses passed in are the full effective
// address (base + static offset) computed in 64-bit arithmetic, so
// they cannot wrap.

// LoadU8 reads one byte.
func (m *Memory) LoadU8(addr uint64) byte {
	if addr+1 > m.fastLimit.Load() {
		addr = m.slow(addr, 1, false)
	}
	return m.data[addr]
}

// LoadU16 reads a little-endian uint16.
func (m *Memory) LoadU16(addr uint64) uint16 {
	if addr+2 > m.fastLimit.Load() {
		addr = m.slow(addr, 2, false)
	}
	return binary.LittleEndian.Uint16(m.data[addr:])
}

// LoadU32 reads a little-endian uint32.
func (m *Memory) LoadU32(addr uint64) uint32 {
	if addr+4 > m.fastLimit.Load() {
		addr = m.slow(addr, 4, false)
	}
	return binary.LittleEndian.Uint32(m.data[addr:])
}

// LoadU64 reads a little-endian uint64.
func (m *Memory) LoadU64(addr uint64) uint64 {
	if addr+8 > m.fastLimit.Load() {
		addr = m.slow(addr, 8, false)
	}
	return binary.LittleEndian.Uint64(m.data[addr:])
}

// StoreU8 writes one byte.
func (m *Memory) StoreU8(addr uint64, v byte) {
	if addr+1 > m.fastLimit.Load() {
		addr = m.slow(addr, 1, true)
	}
	m.data[addr] = v
}

// StoreU16 writes a little-endian uint16.
func (m *Memory) StoreU16(addr uint64, v uint16) {
	if addr+2 > m.fastLimit.Load() {
		addr = m.slow(addr, 2, true)
	}
	binary.LittleEndian.PutUint16(m.data[addr:], v)
}

// StoreU32 writes a little-endian uint32.
func (m *Memory) StoreU32(addr uint64, v uint32) {
	if addr+4 > m.fastLimit.Load() {
		addr = m.slow(addr, 4, true)
	}
	binary.LittleEndian.PutUint32(m.data[addr:], v)
}

// StoreU64 writes a little-endian uint64.
func (m *Memory) StoreU64(addr uint64, v uint64) {
	if addr+8 > m.fastLimit.Load() {
		addr = m.slow(addr, 8, true)
	}
	binary.LittleEndian.PutUint64(m.data[addr:], v)
}

// slow resolves an access that missed the fast-path watermark. It
// returns the effective address to use (adjusted only by clamp).
// It traps for genuinely out-of-bounds accesses.
func (m *Memory) slow(addr, n uint64, write bool) uint64 {
	switch m.strategy {
	case None:
		if !m.touchRange(addr, n) {
			// Past the reservation-analog. Real hardware would read
			// garbage inside the 8 GiB window; the simulator refuses.
			trap.Throwf(trap.OutOfBounds, "none-strategy access at %#x beyond backing", addr)
		}
		return addr
	case Clamp:
		// A shared grow may have raised sizeBytes after this access read
		// a stale fastLimit; re-check against the published length before
		// redirecting, so racing accesses never clamp spuriously.
		size := m.sizeBytes.Load()
		if addr+n <= size && addr+n >= addr {
			return addr
		}
		// Out-of-bounds accesses are redirected to the end of memory.
		if size < n {
			trap.Throwf(trap.OutOfBounds, "clamp with empty memory")
		}
		return size - n
	case Trap:
		// Same stale-watermark re-check as clamp: a racing shared grow
		// publishes sizeBytes after committing pages, so an access that
		// fits the published length is in bounds even when the cached
		// fastLimit said otherwise.
		if size := m.sizeBytes.Load(); addr+n <= size && addr+n >= addr {
			return addr
		}
		trap.Throwf(trap.OutOfBounds, "trap check failed at %#x+%d (size %d)", addr, n, m.sizeBytes.Load())
	case Mprotect, Uffd:
		return m.fault(addr, n, write)
	}
	return addr
}

// fault is the simulated signal-handler path for the virtual-memory
// strategies: SIGSEGV + mprotect for Mprotect, SIGBUS + lock-free
// population for Uffd. Transient failures (injected commit errors,
// dropped fault deliveries) are retried with backoff up to
// faultMaxAttempts; a failure persisting past the budget surfaces as
// trap.Injected, and every absorbed failure counts a recovery.
func (m *Memory) fault(addr, n uint64, write bool) uint64 {
	// The runtime's handler knows the instance's true size; accesses
	// beyond it are genuine bounds violations.
	if size := m.sizeBytes.Load(); addr+n > size || addr+n < addr {
		trap.Throwf(trap.OutOfBounds, "access at %#x+%d beyond size %d", addr, n, size)
	}
	// Open the fault span under the mapping's current parent (the
	// invoke that triggered the access) and make it the parent of the
	// kernel work the handler performs, restoring on exit (including
	// trap unwinds, which panic through this frame). The zero-span
	// check keeps the disabled path free of atomic stores.
	saved := m.mapping.SpanParent()
	if sp := m.obs.StartSpan(obs.SpanFault, saved); sp.Ref().Valid() {
		m.mapping.SetSpanParent(sp.Ref())
		defer func() {
			m.mapping.SetSpanParent(saved)
			sp.End()
		}()
	}
	ps := m.mapping.PageSize()
	start := addr / ps * ps
	end := (addr + n + ps - 1) / ps * ps
	var lastErr error
	lastSite := faultinject.SiteFaultDrop
	for attempt := 0; attempt < faultMaxAttempts; attempt++ {
		if attempt > 0 {
			faultinject.Backoff(attempt)
		}
		kind := m.mapping.Fault(addr, write)
		if kind == vmm.FaultDropped {
			// Delivery lost: the access re-faults after backoff, as a
			// thread whose signal got lost would when it retries the
			// instruction.
			lastErr = &faultinject.Error{Site: faultinject.SiteFaultDrop}
			lastSite = faultinject.SiteFaultDrop
			continue
		}
		var err error
		switch kind {
		case vmm.FaultSegv:
			// SIGSEGV handler: commit the page range with mprotect(2),
			// serialized on the process mmap lock.
			err = m.mapping.Mprotect(start, end-start, vmm.ProtRW)
		case vmm.FaultUffd:
			// SIGBUS mode resolves on the faulting thread, lock-free;
			// poll mode round-trips to the handler thread (the latency
			// the paper's footnote 2 cites for preferring SIGBUS).
			if m.poll != nil {
				err = m.poll.resolve(m.mapping, start, end-start)
			} else {
				err = m.mapping.UffdZeroPages(start, end-start)
			}
		case vmm.FaultResolved:
			// Another thread (or a previous arena user) already
			// populated the page; proceed.
		default:
			trap.Throwf(trap.OutOfBounds, "unexpected fault kind %v", kind)
		}
		if err != nil {
			if site, ok := faultinject.IsTransient(err); ok {
				lastErr, lastSite = err, site
				continue
			}
			trap.Throwf(trap.OutOfBounds, "fault handler: %v", err)
		}
		if lastErr != nil {
			m.inj.Recovered(lastSite)
		}
		storeMax(&m.committedEnd, end)
		m.faultCommits.Inc()
		if kind != vmm.FaultResolved {
			// Pages spanned by this handler invocation's commit; a bulk
			// range resolves in one invocation, so this is the
			// pages-populated-per-fault figure.
			m.faultPages.Add(int64((end - start) / ps))
		}
		m.advanceWatermark()
		return addr
	}
	trap.ThrowWrap(trap.Injected, lastErr,
		"fault at %#x+%d unresolved after %d attempts", addr, n, faultMaxAttempts)
	return 0 // unreachable
}

// mprotectRetry commits [off, off+length) read-write, retrying
// injected transient failures with backoff. Used by eager-commit
// instantiation and grow; the lazy fault path has its own loop.
func (m *Memory) mprotectRetry(mp *vmm.Mapping, off, length uint64) error {
	var lastErr error
	for attempt := 0; attempt < faultMaxAttempts; attempt++ {
		if attempt > 0 {
			faultinject.Backoff(attempt)
		}
		err := mp.Mprotect(off, length, vmm.ProtRW)
		if err == nil {
			if lastErr != nil {
				m.inj.Recovered(faultinject.SiteMprotect)
			}
			return nil
		}
		if _, ok := faultinject.IsTransient(err); !ok {
			return err
		}
		lastErr = err
	}
	return lastErr
}

// touchRange is the none strategy's miss path: the whole backing is
// mapped read-write, so an access past the watermark is an ordinary
// first-touch minor fault — lock-free, no trap, whatever the memory
// size. It reports false for a range that leaves the backing.
func (m *Memory) touchRange(addr, n uint64) bool {
	if end := addr + n; end < addr || end > m.mapping.Backing() {
		return false
	}
	if err := m.mapping.Touch(addr, n); err != nil {
		trap.Throwf(trap.OutOfBounds, "none-strategy first touch: %v", err)
	}
	m.advanceWatermark()
	return true
}

// advanceWatermark extends the fast-path limit over the contiguous
// committed prefix so subsequent accesses skip the miss path. The
// strategies that fault to enforce the bound stop at sizeBytes; none
// enforces nothing and follows the prefix wherever it goes.
func (m *Memory) advanceWatermark() {
	w := m.mapping.CommittedPrefix(m.fastLimit.Load())
	if m.strategy != None {
		w = min(w, m.sizeBytes.Load())
	}
	storeMax(&m.fastLimit, w)
}

// Bytes returns a slice over [addr, addr+n) after ensuring the range
// is accessible, for bulk operations (memory.copy/fill, segment
// initialization, WASI I/O). Traps on out-of-bounds. The whole range
// is validated (and, for the virtual-memory strategies, committed)
// through one CheckRange call — bulk operations pay one check, not
// one per page or per element.
func (m *Memory) Bytes(addr, n uint64, write bool) []byte {
	size := m.sizeBytes.Load()
	if n == 0 {
		if addr > size {
			trap.Throwf(trap.OutOfBounds, "zero-length access at %#x beyond size", addr)
		}
		return nil
	}
	if addr+n > size || addr+n < addr {
		trap.Throwf(trap.OutOfBounds, "bulk access [%#x,%#x) beyond size %d", addr, addr+n, size)
	}
	// Bulk operations trap on out-of-bounds under every strategy
	// (wasm's memory.copy/fill semantics), so the clamp redirect does
	// not apply and the elision-grade range check is valid here for
	// clamp too; in-bounds was established above, hence for the
	// non-clamp strategies CheckRange cannot fail.
	if m.strategy != Clamp {
		if _, ok := m.CheckRange(addr, n, write); !ok {
			trap.Throwf(trap.OutOfBounds, "bulk access [%#x,%#x) beyond size %d", addr, addr+n, size)
		}
	}
	return m.data[addr : addr+n]
}

// WriteAt copies b into memory at addr through the commit machinery.
func (m *Memory) WriteAt(addr uint64, b []byte) {
	if len(b) == 0 {
		return
	}
	copy(m.Bytes(addr, uint64(len(b)), true), b)
}

// Fill implements memory.fill.
func (m *Memory) Fill(dst, val, n uint64) {
	if n == 0 {
		if dst > m.sizeBytes.Load() {
			trap.Throw(trap.OutOfBounds)
		}
		return
	}
	b := m.Bytes(dst, n, true)
	for i := range b {
		b[i] = byte(val)
	}
}

// Copy implements memory.copy (memmove semantics).
func (m *Memory) Copy(dst, src, n uint64) {
	if n == 0 {
		if size := m.sizeBytes.Load(); dst > size || src > size {
			trap.Throw(trap.OutOfBounds)
		}
		return
	}
	d := m.Bytes(dst, n, true)
	s := m.Bytes(src, n, false)
	copy(d, s)
}
