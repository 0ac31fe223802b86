package mem

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"leapsandbounds/internal/faultinject"
	"leapsandbounds/internal/obs"
	"leapsandbounds/internal/vmm"
	"leapsandbounds/internal/wasm"
)

// injectedAS is testAS with a fault injector installed.
func injectedAS(plan faultinject.Plan) *vmm.AddressSpace {
	as := testAS()
	as.SetInjector(faultinject.New(plan, as.Obs().Child("faultinject")))
	return as
}

// TestGrowExactlyToMax grows each strategy to precisely MaxPages: the
// boundary grow must succeed, the last byte must be addressable, and
// any further grow (including by zero pages — a size query) must
// behave per spec.
func TestGrowExactlyToMax(t *testing.T) {
	cases := []struct{ min, max, delta uint32 }{
		{1, 4, 3}, // multi-page jump to the limit
		{3, 4, 1}, // single-page step to the limit
		{2, 2, 0}, // already at the limit; grow(0) reports it
	}
	for _, s := range Strategies() {
		for _, c := range cases {
			t.Run(s.String(), func(t *testing.T) {
				m := newMem(t, s, c.min, c.max)
				if got := m.Grow(c.delta); got != int32(c.min) {
					t.Fatalf("grow(%d): %d, want %d", c.delta, got, c.min)
				}
				if m.SizePages() != c.max {
					t.Fatalf("size %d pages, want max %d", m.SizePages(), c.max)
				}
				// The final page is fully usable.
				last := uint64(c.max)*wasm.PageSize - 8
				m.StoreU64(last, 0xfeedface)
				if m.LoadU64(last) != 0xfeedface {
					t.Error("last slot of max-grown memory broken")
				}
				// Past the limit: -1, state untouched.
				if got := m.Grow(1); got != -1 {
					t.Errorf("grow past max: %d, want -1", got)
				}
				if got := m.Grow(0); got != int32(c.max) {
					t.Errorf("grow(0) at max: %d, want %d", got, c.max)
				}
				if m.LoadU64(last) != 0xfeedface {
					t.Error("failed grow corrupted memory")
				}
			})
		}
	}
}

// TestGrowPastMaxLeavesStateIntact: a rejected grow must not move the
// size, the fast-path watermark, or the data.
func TestGrowPastMaxLeavesStateIntact(t *testing.T) {
	for _, s := range Strategies() {
		t.Run(s.String(), func(t *testing.T) {
			m := newMem(t, s, 2, 4)
			m.StoreU64(0, 42)
			limit := m.fastLimit.Load()
			if got := m.Grow(3); got != -1 {
				t.Fatalf("grow(3) from 2/4: %d, want -1", got)
			}
			if m.SizePages() != 2 {
				t.Errorf("size %d after failed grow, want 2", m.SizePages())
			}
			if got := m.fastLimit.Load(); got != limit {
				t.Errorf("fastLimit moved %d -> %d on failed grow", limit, got)
			}
			if m.LoadU64(0) != 42 {
				t.Error("data lost on failed grow")
			}
		})
	}
}

// TestUffdPoolExhaustionFallback: with every pool acquisition failing
// (injected exhaustion), instantiation must degrade to the mprotect
// strategy — same trap semantics — and count each recovery.
func TestUffdPoolExhaustionFallback(t *testing.T) {
	as := injectedAS(faultinject.Plan{
		Seed: 1, Rate: 1, Sites: []faultinject.Site{faultinject.SitePoolGet},
	})
	pool := NewArenaPool()
	defer pool.Drain()
	const n = 5
	for i := 0; i < n; i++ {
		m, err := New(Config{Strategy: Uffd, AS: as, MinPages: 1, MaxPages: 4, Pool: pool})
		if err != nil {
			t.Fatalf("instantiation %d not absorbed: %v", i, err)
		}
		if m.Strategy() != Mprotect {
			t.Fatalf("instantiation %d: strategy %v, want Mprotect fallback", i, m.Strategy())
		}
		m.StoreU64(100, uint64(i)+1)
		if m.LoadU64(100) != uint64(i)+1 {
			t.Error("fallback memory broken")
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if st := pool.stats(); st.Created != 0 || st.Reused != 0 {
		t.Errorf("pool served arenas under total exhaustion: %+v", st)
	}
	if got := as.Obs().Child("faultinject").Counter("inject_pool_get").Load(); got != n {
		t.Errorf("pool_get injections %d, want %d", got, n)
	}
}

// TestPoolAcquireReleaseUnderIntermittentExhaustion hammers the
// acquire/release cycle with the pool failing half the time: every
// instantiation must succeed (uffd or fallback), the pool's books
// must balance, and both paths must actually be taken.
func TestPoolAcquireReleaseUnderIntermittentExhaustion(t *testing.T) {
	as := injectedAS(faultinject.Plan{
		Seed: 42, Rate: 0.5, Sites: []faultinject.Site{faultinject.SitePoolGet},
	})
	pool := NewArenaPool()
	defer pool.Drain()
	uffd, fellBack := 0, 0
	for i := 0; i < 40; i++ {
		m, err := New(Config{Strategy: Uffd, AS: as, MinPages: 1, MaxPages: 4, Pool: pool})
		if err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		m.StoreU64(uint64(i)*8, ^uint64(i))
		if m.LoadU64(uint64(i)*8) != ^uint64(i) {
			t.Fatalf("iteration %d: memory broken", i)
		}
		switch m.Strategy() {
		case Uffd:
			uffd++
		case Mprotect:
			fellBack++
		}
		if err := m.Close(); err != nil {
			t.Fatalf("iteration %d close: %v", i, err)
		}
	}
	if uffd == 0 || fellBack == 0 {
		t.Errorf("both paths should fire at rate 0.5: uffd=%d fallback=%d", uffd, fellBack)
	}
	st := pool.stats()
	if got := st.Created + st.Reused; got != int64(uffd) {
		t.Errorf("pool served %d arenas (created %d + reused %d), want %d",
			got, st.Created, st.Reused, uffd)
	}
	if st.Returned != int64(uffd) {
		t.Errorf("returned %d arenas, want %d", st.Returned, uffd)
	}
}

// TestArenaDoubleRelease: returning the same arena twice is a
// lifetime bug the pool must reject, and a legitimate
// acquire/release/acquire cycle must re-arm the guard.
func TestArenaDoubleRelease(t *testing.T) {
	as := testAS()
	pool := NewArenaPool()
	defer pool.Drain()
	a, err := pool.get(as, 4*wasm.PageSize, obs.SpanRef{})
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.put(a, wasm.PageSize); err != nil {
		t.Fatalf("first put: %v", err)
	}
	if err := pool.put(a, wasm.PageSize); !errors.Is(err, errArenaDoubleRelease) {
		t.Fatalf("second put: %v, want errArenaDoubleRelease", err)
	}
	// Re-acquiring re-arms the guard.
	b, err := pool.get(as, 4*wasm.PageSize, obs.SpanRef{})
	if err != nil {
		t.Fatal(err)
	}
	if b != a {
		t.Fatal("pool did not recycle the arena")
	}
	if err := pool.put(b, 0); err != nil {
		t.Fatalf("put after reacquire: %v", err)
	}
}

// TestArenaConcurrentDoubleRelease races several releases of one
// arena: exactly one wins, the rest see errArenaDoubleRelease, and
// nothing tears (run under -race).
func TestArenaConcurrentDoubleRelease(t *testing.T) {
	as := testAS()
	pool := NewArenaPool()
	defer pool.Drain()
	a, err := pool.get(as, 4*wasm.PageSize, obs.SpanRef{})
	if err != nil {
		t.Fatal(err)
	}
	const releasers = 8
	errs := make([]error, releasers)
	var wg sync.WaitGroup
	for i := 0; i < releasers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = pool.put(a, 0)
		}(i)
	}
	wg.Wait()
	ok, dup := 0, 0
	for _, err := range errs {
		switch {
		case err == nil:
			ok++
		case errors.Is(err, errArenaDoubleRelease):
			dup++
		default:
			t.Errorf("unexpected error: %v", err)
		}
	}
	if ok != 1 || dup != releasers-1 {
		t.Errorf("%d successful releases and %d rejections, want 1 and %d", ok, dup, releasers-1)
	}
}

// poolGet and poolPut are get and put for tests that only care which
// arena they hold.
func poolGet(t *testing.T, pool *ArenaPool, as *vmm.AddressSpace) *arena {
	t.Helper()
	a, err := pool.get(as, 4*wasm.PageSize, obs.SpanRef{})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func poolPut(t *testing.T, pool *ArenaPool, a *arena) {
	t.Helper()
	if err := pool.put(a, 0); err != nil {
		t.Fatal(err)
	}
}

// TestPoolStaleSwapFails replays the Treiber-stack ABA on the pool's
// own fields, one step at a time. A popper (T1) reads the head and the
// head's successor and is descheduled; meanwhile T2 takes both parked
// arenas and returns the first, so the head again carries the arena T1
// saw — but the arena T1 read as its successor is in T2's hands. T1's
// compare-and-swap must fail: if it succeeded, the pool's next get
// would hand out an arena that T2 still holds — two instances on one
// mapping.
func TestPoolStaleSwapFails(t *testing.T) {
	as := testAS()
	pool := NewArenaPool()
	defer pool.Drain()
	first, second := poolGet(t, pool, as), poolGet(t, pool, as)
	poolPut(t, pool, second)
	poolPut(t, pool, first) // head → first → second

	// T1: the loads of pop, up to its compare-and-swap.
	head := pool.head.Load()
	next := head.next

	// T2 runs to completion in between.
	a, b := poolGet(t, pool, as), poolGet(t, pool, as)
	if a != first || b != second {
		t.Fatal("pool is not a stack; the replay below assumes one")
	}
	poolPut(t, pool, a) // the head carries first again; T2 keeps b

	// T1 resumes.
	if pool.head.CompareAndSwap(head, next) {
		t.Error("a swap from a stale head succeeded")
	}
	if c := poolGet(t, pool, as); c == b {
		t.Fatalf("arena %p handed out while its first holder still has it", b)
	}
}

// TestPoolOneHolderPerArena is the same property under real
// concurrency (run under -race): 8 goroutines take and return arenas
// of a pool that starts with 2, and no arena may ever have two
// holders.
func TestPoolOneHolderPerArena(t *testing.T) {
	as := testAS()
	pool := NewArenaPool()
	defer pool.Drain()
	a, b := poolGet(t, pool, as), poolGet(t, pool, as)
	poolPut(t, pool, a)
	poolPut(t, pool, b)

	var holders sync.Map // *arena → *atomic.Int32
	const goroutines, rounds = 8, 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				a, err := pool.get(as, 4*wasm.PageSize, obs.SpanRef{})
				if err != nil {
					t.Error(err)
					return
				}
				n, _ := holders.LoadOrStore(a, new(atomic.Int32))
				if held := n.(*atomic.Int32).Add(1); held != 1 {
					t.Errorf("arena %p has %d holders", a, held)
				}
				n.(*atomic.Int32).Add(-1)
				if err := pool.put(a, 0); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
