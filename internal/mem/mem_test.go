package mem

import (
	"math/rand"
	"sync"
	"testing"

	"leapsandbounds/internal/trap"
	"leapsandbounds/internal/vmm"
	"leapsandbounds/internal/wasm"
)

func testAS() *vmm.AddressSpace {
	// Zero simulated costs so unit tests run fast; 4 KiB pages.
	return vmm.New(vmm.Config{})
}

func newMem(t *testing.T, s Strategy, minPages, maxPages uint32) *Memory {
	t.Helper()
	cfg := Config{Strategy: s, AS: testAS(), MinPages: minPages, MaxPages: maxPages}
	if s == Uffd {
		cfg.Pool = NewArenaPool()
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

func catchTrap(f func()) (trapped *trap.Trap) {
	defer func() {
		if r := recover(); r != nil {
			if tr, ok := r.(*trap.Trap); ok {
				trapped = tr
				return
			}
			panic(r)
		}
	}()
	f()
	return nil
}

func TestLoadStoreRoundtrip(t *testing.T) {
	for _, s := range Strategies() {
		t.Run(s.String(), func(t *testing.T) {
			m := newMem(t, s, 2, 16)
			m.StoreU8(0, 0xab)
			m.StoreU16(100, 0xbeef)
			m.StoreU32(2000, 0xdeadbeef)
			m.StoreU64(70000, 0x0123456789abcdef)
			if got := m.LoadU8(0); got != 0xab {
				t.Errorf("u8: %#x", got)
			}
			if got := m.LoadU16(100); got != 0xbeef {
				t.Errorf("u16: %#x", got)
			}
			if got := m.LoadU32(2000); got != 0xdeadbeef {
				t.Errorf("u32: %#x", got)
			}
			if got := m.LoadU64(70000); got != 0x0123456789abcdef {
				t.Errorf("u64: %#x", got)
			}
		})
	}
}

func TestZeroInitialized(t *testing.T) {
	for _, s := range Strategies() {
		t.Run(s.String(), func(t *testing.T) {
			m := newMem(t, s, 2, 4)
			for _, addr := range []uint64{0, 1, wasm.PageSize - 8, wasm.PageSize, 2*wasm.PageSize - 8} {
				if got := m.LoadU64(addr); got != 0 {
					t.Errorf("addr %d: %#x, want 0", addr, got)
				}
			}
		})
	}
}

func TestOutOfBoundsTraps(t *testing.T) {
	// All strategies except none and clamp must trap past size;
	// clamp redirects, none reads the over-allocated window.
	for _, s := range []Strategy{Trap, Mprotect, Uffd} {
		t.Run(s.String(), func(t *testing.T) {
			m := newMem(t, s, 1, 4)
			size := m.SizeBytes()
			if tr := catchTrap(func() { m.LoadU32(size) }); tr == nil {
				t.Error("load at size did not trap")
			}
			if tr := catchTrap(func() { m.LoadU32(size - 2) }); tr == nil {
				t.Error("straddling load did not trap")
			}
			if tr := catchTrap(func() { m.StoreU64(size*10, 1) }); tr == nil {
				t.Error("far store did not trap")
			}
			// In-bounds still works afterwards.
			m.StoreU32(size-4, 7)
			if m.LoadU32(size-4) != 7 {
				t.Error("in-bounds access broken after trap")
			}
		})
	}
}

func TestClampRedirectsToEnd(t *testing.T) {
	m := newMem(t, Clamp, 1, 4)
	size := m.SizeBytes()
	m.StoreU32(size-4, 0x11223344)
	// Out-of-bounds load clamps to the last valid slot.
	if got := m.LoadU32(size + 1000); got != 0x11223344 {
		t.Errorf("clamped load: %#x, want %#x", got, 0x11223344)
	}
	// Out-of-bounds store writes the last valid slot.
	m.StoreU32(size*2, 0x55667788)
	if got := m.LoadU32(size - 4); got != 0x55667788 {
		t.Errorf("after clamped store: %#x", got)
	}
}

func TestNoneAllowsWithinBacking(t *testing.T) {
	// The unsafe baseline: accesses beyond size but within the
	// backing window succeed (reading zeros), exactly like the
	// paper's fully-RW-mapped 8 GiB region.
	m := newMem(t, None, 1, 4)
	size := m.SizeBytes()
	if got := m.LoadU32(size + 8); got != 0 {
		t.Errorf("beyond-size load: %#x, want 0", got)
	}
}

func TestGrow(t *testing.T) {
	for _, s := range Strategies() {
		t.Run(s.String(), func(t *testing.T) {
			m := newMem(t, s, 1, 4)
			if got := m.Grow(2); got != 1 {
				t.Fatalf("grow: %d, want 1", got)
			}
			if m.SizePages() != 3 {
				t.Fatalf("size %d pages, want 3", m.SizePages())
			}
			// New pages are zero and writable.
			addr := uint64(2 * wasm.PageSize)
			if got := m.LoadU64(addr); got != 0 {
				t.Errorf("new page not zero: %#x", got)
			}
			m.StoreU64(addr, 42)
			if m.LoadU64(addr) != 42 {
				t.Error("store to grown page lost")
			}
			// Beyond max fails.
			if got := m.Grow(2); got != -1 {
				t.Errorf("over-max grow: %d, want -1", got)
			}
			if m.SizePages() != 3 {
				t.Errorf("size changed by failed grow: %d", m.SizePages())
			}
		})
	}
}

func TestGrowZeroPages(t *testing.T) {
	m := newMem(t, Trap, 1, 4)
	if got := m.Grow(0); got != 1 {
		t.Errorf("grow(0): %d, want 1", got)
	}
}

func TestBulkOps(t *testing.T) {
	for _, s := range Strategies() {
		t.Run(s.String(), func(t *testing.T) {
			m := newMem(t, s, 2, 4)
			m.Fill(100, 0xcc, 50)
			for i := uint64(100); i < 150; i++ {
				if m.LoadU8(i) != 0xcc {
					t.Fatalf("fill byte %d wrong", i)
				}
			}
			m.Copy(70000, 100, 50) // cross-page destination
			for i := uint64(70000); i < 70050; i++ {
				if m.LoadU8(i) != 0xcc {
					t.Fatalf("copy byte %d wrong", i)
				}
			}
			// Overlapping copy keeps memmove semantics.
			m.WriteAt(200, []byte{1, 2, 3, 4, 5})
			m.Copy(202, 200, 5)
			want := []byte{1, 2, 1, 2, 3, 4, 5}
			for i, w := range want {
				if got := m.LoadU8(uint64(200 + i)); got != w {
					t.Fatalf("overlap copy byte %d: %d, want %d", i, got, w)
				}
			}
		})
	}
}

func TestBulkOutOfBounds(t *testing.T) {
	for _, s := range []Strategy{Trap, Mprotect, Uffd, Clamp} {
		t.Run(s.String(), func(t *testing.T) {
			m := newMem(t, s, 1, 2)
			size := m.SizeBytes()
			if tr := catchTrap(func() { m.Fill(size-10, 0, 20) }); tr == nil {
				t.Error("fill past end did not trap")
			}
			if tr := catchTrap(func() { m.Copy(0, size-10, 20) }); tr == nil {
				t.Error("copy past end did not trap")
			}
		})
	}
}

func TestUffdArenaReuseIsZeroed(t *testing.T) {
	as := testAS()
	pool := NewArenaPool()
	cfg := Config{Strategy: Uffd, AS: as, MinPages: 1, MaxPages: 4, Pool: pool}

	m1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m1.StoreU64(4096, 0xdead)
	m1.StoreU64(60000, 0xbeef)
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}

	m2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if got := m2.LoadU64(4096); got != 0 {
		t.Errorf("recycled arena leaked %#x at 4096", got)
	}
	if got := m2.LoadU64(60000); got != 0 {
		t.Errorf("recycled arena leaked %#x at 60000", got)
	}
	st := pool.stats()
	if st.Created != 1 || st.Reused != 1 {
		t.Errorf("pool stats %+v, want 1 created 1 reused", st)
	}
}

func TestUffdPoolAvoidsMmap(t *testing.T) {
	as := testAS()
	pool := NewArenaPool()
	cfg := Config{Strategy: Uffd, AS: as, MinPages: 1, MaxPages: 4, Pool: pool}
	for i := 0; i < 10; i++ {
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m.StoreU32(0, uint32(i))
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if got := as.Snapshot().MmapCalls; got != 1 {
		t.Errorf("mmap calls %d, want 1 (arena reuse)", got)
	}
	// Compare with mprotect: one mmap per instance.
	as2 := testAS()
	for i := 0; i < 10; i++ {
		m, err := New(Config{Strategy: Mprotect, AS: as2, MinPages: 1, MaxPages: 4})
		if err != nil {
			t.Fatal(err)
		}
		m.StoreU32(0, uint32(i))
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if got := as2.Snapshot().MmapCalls; got != 10 {
		t.Errorf("mprotect-strategy mmap calls %d, want 10", got)
	}
}

func TestPoolDrain(t *testing.T) {
	as := testAS()
	pool := NewArenaPool()
	cfg := Config{Strategy: Uffd, AS: as, MinPages: 1, MaxPages: 4, Pool: pool}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	pool.Drain()
	if got := as.Snapshot().MunmapCalls; got != 1 {
		t.Errorf("munmap calls after drain: %d, want 1", got)
	}
}

// TestStrategyEquivalence verifies that all five strategies observe
// identical memory semantics on random in-bounds access sequences.
func TestStrategyEquivalence(t *testing.T) {
	const (
		minPages = 2
		maxPages = 8
		ops      = 5000
	)
	type op struct {
		kind  int // 0 store8, 1 store32, 2 store64, 3 grow, 4 fill, 5 copy
		addr  uint64
		addr2 uint64
		val   uint64
		n     uint64
	}
	r := rand.New(rand.NewSource(42))
	sizeBytes := uint64(minPages * wasm.PageSize)
	var script []op
	for i := 0; i < ops; i++ {
		o := op{kind: r.Intn(6), val: r.Uint64()}
		switch o.kind {
		case 3:
			if sizeBytes < maxPages*wasm.PageSize && r.Intn(10) == 0 {
				sizeBytes += wasm.PageSize
			} else {
				o.kind = 0
			}
		case 4, 5:
			o.n = uint64(r.Intn(200))
			o.addr = uint64(r.Int63n(int64(sizeBytes - 200)))
			o.addr2 = uint64(r.Int63n(int64(sizeBytes - 200)))
		}
		if o.kind <= 2 {
			o.addr = uint64(r.Int63n(int64(sizeBytes - 8)))
		}
		script = append(script, o)
	}

	run := func(s Strategy) []uint64 {
		cfg := Config{Strategy: s, AS: testAS(), MinPages: minPages, MaxPages: maxPages}
		if s == Uffd {
			cfg.Pool = NewArenaPool()
		}
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		var sums []uint64
		for _, o := range script {
			switch o.kind {
			case 0:
				m.StoreU8(o.addr, byte(o.val))
			case 1:
				m.StoreU32(o.addr, uint32(o.val))
			case 2:
				m.StoreU64(o.addr, o.val)
			case 3:
				m.Grow(1)
			case 4:
				m.Fill(o.addr, o.val&0xff, o.n)
			case 5:
				m.Copy(o.addr, o.addr2, o.n)
			}
			sums = append(sums, m.LoadU64(o.addr))
		}
		return sums
	}

	want := run(None)
	for _, s := range []Strategy{Clamp, Trap, Mprotect, Uffd} {
		got := run(s)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%v diverges from none at op %d: %#x vs %#x", s, i, got[i], want[i])
			}
		}
	}
}

// TestConcurrentInstances runs many instances per strategy on
// goroutines sharing one address space, as the harness does.
func TestConcurrentInstances(t *testing.T) {
	for _, s := range Strategies() {
		t.Run(s.String(), func(t *testing.T) {
			as := testAS()
			pool := NewArenaPool()
			var wg sync.WaitGroup
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					for i := 0; i < 30; i++ {
						cfg := Config{Strategy: s, AS: as, MinPages: 2, MaxPages: 8, Pool: pool}
						m, err := New(cfg)
						if err != nil {
							t.Error(err)
							return
						}
						for a := uint64(0); a < m.SizeBytes(); a += 4096 {
							m.StoreU64(a, a^uint64(seed))
						}
						for a := uint64(0); a < m.SizeBytes(); a += 4096 {
							if got := m.LoadU64(a); got != a^uint64(seed) {
								t.Errorf("readback at %d: %#x", a, got)
								break
							}
						}
						if err := m.Close(); err != nil {
							t.Error(err)
							return
						}
					}
				}(int64(w))
			}
			wg.Wait()
			if err := as.CheckInvariants(); err != nil {
				t.Error(err)
			}
			// Every uffd instance took one arena and gave it back.
			if st := pool.stats(); s == Uffd && (st.Created+st.Reused != 8*30 || st.Returned != 8*30) {
				t.Errorf("pool stats %+v, want %d arenas handed out and returned", st, 8*30)
			}
		})
	}
}

// TestOneFaultOneHandlerCall: on one goroutine, N first touches of
// distinct pages are N faults the simulated kernel delivers (vmm's
// segv_faults under mprotect, uffd_faults under uffd) and N commits of
// the handler (mem/<strategy>/fault_commits): a fault is one handler
// call, never a retry.
func TestOneFaultOneHandlerCall(t *testing.T) {
	const n = 16
	for _, s := range []Strategy{Mprotect, Uffd} {
		t.Run(s.String(), func(t *testing.T) {
			as := testAS()
			m, err := New(Config{Strategy: s, AS: as, MinPages: 4, MaxPages: 4, Pool: NewArenaPool()})
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			ps := m.mapping.PageSize()
			for i := uint64(0); i < n; i++ {
				m.StoreU32(3*i*ps, uint32(i)+1)
			}
			st := as.Snapshot()
			delivered := st.SegvFaults
			if s == Uffd {
				delivered = st.UffdFaults
			}
			commits := as.Obs().Child("mem").Child(s.String()).Counter("fault_commits").Load()
			if delivered != n || commits != n {
				t.Errorf("%d first touches: %d faults delivered, %d handler commits, want %d each", n, delivered, commits, n)
			}
		})
	}
}

func TestMprotectEagerCommit(t *testing.T) {
	// Eager commit must keep identical semantics while collapsing
	// per-page fault commits into one mprotect per grow.
	as := testAS()
	m, err := New(Config{Strategy: Mprotect, AS: as, MinPages: 4, MaxPages: 8,
		EagerCommit: true})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	// Touch every page: no further mprotect calls should happen.
	for a := uint64(0); a+8 <= m.SizeBytes(); a += 4096 {
		m.StoreU64(a, a)
	}
	if got := as.Snapshot().MprotectCalls; got != 1 {
		t.Errorf("mprotect calls %d, want 1 (eager at instantiation)", got)
	}
	if got := m.Grow(2); got != 4 {
		t.Fatalf("grow: %d", got)
	}
	m.StoreU64(5*65536, 7)
	if m.LoadU64(5*65536) != 7 {
		t.Error("readback after eager grow failed")
	}
	if got := as.Snapshot().MprotectCalls; got != 2 {
		t.Errorf("mprotect calls %d, want 2 (one per grow)", got)
	}
	// OOB still traps.
	if tr := catchTrap(func() { m.LoadU32(m.SizeBytes()) }); tr == nil {
		t.Error("eager commit lost OOB trapping")
	}
}

func TestUffdPollModeSemantics(t *testing.T) {
	// Poll-mode delivery must behave identically to SIGBUS mode,
	// only slower (a handler-thread round trip per fault).
	as := testAS()
	pool := NewArenaPool()
	defer pool.Drain()
	m, err := New(Config{Strategy: Uffd, AS: as, MinPages: 2, MaxPages: 8,
		Pool: pool, UffdPoll: true})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	m.StoreU64(0, 42)
	m.StoreU64(100000, 7)
	if m.LoadU64(0) != 42 || m.LoadU64(100000) != 7 {
		t.Error("poll-mode readback failed")
	}
	if tr := catchTrap(func() { m.LoadU64(m.SizeBytes()) }); tr == nil {
		t.Error("poll mode lost OOB trapping")
	}
	if as.Snapshot().UffdFaults == 0 {
		t.Error("no faults served")
	}
}

func TestUffdPollNoPool(t *testing.T) {
	as := testAS()
	m, err := New(Config{Strategy: Uffd, AS: as, MinPages: 1, MaxPages: 4,
		DisablePool: true, UffdPoll: true})
	if err != nil {
		t.Fatal(err)
	}
	m.StoreU32(500, 9)
	if m.LoadU32(500) != 9 {
		t.Error("readback failed")
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestUffdNoPoolUnmapsPerInstance(t *testing.T) {
	as := testAS()
	for i := 0; i < 5; i++ {
		m, err := New(Config{Strategy: Uffd, AS: as, MinPages: 1, MaxPages: 4,
			DisablePool: true})
		if err != nil {
			t.Fatal(err)
		}
		m.StoreU32(0, uint32(i))
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
	}
	snap := as.Snapshot()
	if snap.MmapCalls != 5 || snap.MunmapCalls != 5 {
		t.Errorf("mmap/munmap %d/%d, want 5/5 (no pooling)", snap.MmapCalls, snap.MunmapCalls)
	}
}

func TestWatermarkAdvance(t *testing.T) {
	// Sequential touch should leave only page-count faults, not
	// per-access faults, thanks to the committed-prefix watermark.
	as := testAS()
	m, err := New(Config{Strategy: Mprotect, AS: as, MinPages: 16, MaxPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for a := uint64(0); a+8 <= m.SizeBytes(); a += 8 {
		m.StoreU64(a, a)
	}
	snap := as.Snapshot()
	pages := int64(m.SizeBytes() / 4096)
	if snap.MprotectCalls > pages+1 {
		t.Errorf("mprotect calls %d for %d pages: watermark not advancing", snap.MprotectCalls, pages)
	}
}
