package mem

import (
	"fmt"
	"testing"

	"leapsandbounds/internal/trap"
	"leapsandbounds/internal/wasm"
)

// The scrub rule (vmm.Mapping.Data): a byte of a backing is non-zero
// only inside a committed page, so teardown and arena recycling scrub
// committed pages and nothing else. These tests dirty a backing the
// way a sparse guest does — through every strategy's own commit path —
// and then read the whole recycled backing, not just the part a new
// instance would touch.

const (
	scrubMinPages = 2
	scrubMaxPages = 64
)

// firstNonZero returns the index of the first non-zero byte, or -1.
func firstNonZero(b []byte) int {
	for i, v := range b {
		if v != 0 {
			return i
		}
	}
	return -1
}

// dirtySparse writes the first page, a middle page past the original
// size after a grow, and the last bytes of memory.size; under none it
// also strays past memory.size through both access families.
func dirtySparse(t *testing.T, m *Memory) {
	t.Helper()
	m.StoreU64(8, 0x1111111111111111)
	if m.Grow(6) < 0 {
		t.Fatal("grow failed")
	}
	m.StoreU64(4*wasm.PageSize+4096+24, 0x2222222222222222)
	m.StoreU64(m.SizeBytes()-8, 0x3333333333333333)
	if m.Strategy() != None {
		return
	}
	// A stray store through the checked accessor: misses the watermark,
	// first-touches its page, succeeds.
	stray := m.SizeBytes() + 5*wasm.PageSize + 16
	m.StoreU64(stray, 0x4444444444444444)
	if got := m.LoadU64(stray); got != 0x4444444444444444 {
		t.Fatalf("stray store read back %#x", got)
	}
	// And through the elision pair, at the very end of the backing.
	last := m.mapping.Backing() - 8
	if _, ok := m.CheckRange(last, 8, true); !ok {
		t.Fatal("none: CheckRange inside the backing failed")
	}
	m.StoreU64Unchecked(last, 0x5555555555555555)
	// Unaligned ranges commit every page they overlap, not just
	// ceil(n/pagesize) pages from the first: a checked store that
	// straddles two untouched pages, and an unaligned page-long
	// CheckRange whose last bytes get an unchecked store.
	ps := m.mapping.PageSize()
	straddle := m.SizeBytes() + 9*wasm.PageSize + ps - 4
	m.StoreU64(straddle, 0x6666666666666666)
	ranged := m.SizeBytes() + 20*wasm.PageSize + 100
	if _, ok := m.CheckRange(ranged, ps, true); !ok {
		t.Fatal("none: unaligned CheckRange inside the backing failed")
	}
	m.StoreU64Unchecked(ranged+ps-8, 0x7777777777777777)
	for _, addr := range []uint64{straddle, straddle + 7, ranged, ranged + ps - 1} {
		if err := m.mapping.CheckAccess(addr, 1, true); err != nil {
			t.Errorf("none: byte %#x written in an uncommitted page: %v", addr, err)
		}
	}
}

func TestRecycledBackingIsZero(t *testing.T) {
	for _, s := range Strategies() {
		for _, fork := range []bool{false, true} {
			for _, disablePool := range []bool{false, true} {
				name := fmt.Sprintf("%v/fork=%t/nopool=%t", s, fork, disablePool)
				t.Run(name, func(t *testing.T) {
					as := testAS()
					cfg := Config{
						Strategy: s, AS: as,
						MinPages: scrubMinPages, MaxPages: scrubMaxPages,
						DisablePool: disablePool,
					}
					if s == Uffd && !disablePool {
						cfg.Pool = NewArenaPool()
						defer cfg.Pool.Drain()
					}
					baseline := as.ResidentBytes()

					var m *Memory
					var err error
					if fork {
						tmpl, terr := New(cfg)
						if terr != nil {
							t.Fatal(terr)
						}
						tmpl.Fill(0, 0xA5, tmpl.SizeBytes())
						snap, serr := tmpl.Snapshot()
						if serr != nil {
							t.Fatal(serr)
						}
						if err := tmpl.Close(); err != nil {
							t.Fatal(err)
						}
						m, err = NewFromSnapshot(cfg, snap)
					} else {
						m, err = New(cfg)
					}
					if err != nil {
						t.Fatal(err)
					}
					dirtySparse(t, m)
					dirty := &m.mapping.Data()[0]
					if err := m.Close(); err != nil {
						t.Fatal(err)
					}
					if got := as.ResidentBytes(); got != baseline {
						t.Errorf("resident %d after close, want baseline %d", got, baseline)
					}

					m2, err := New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					data := m2.mapping.Data()
					if &data[0] != dirty {
						t.Fatal("second instance did not recycle the first one's backing; the test checks nothing")
					}
					if i := firstNonZero(data); i >= 0 {
						t.Errorf("recycled backing byte %#x = %#x, want the whole backing zero", i, data[i])
					}
					if err := m2.Close(); err != nil {
						t.Fatal(err)
					}
					if got := as.ResidentBytes(); got != baseline {
						t.Errorf("resident %d after second close, want baseline %d", got, baseline)
					}
				})
			}
		}
	}
}

// TestDiscardedArenaIsScrubbed: an arena the pool discards — Drain
// unmaps every parked arena — is scrubbed by that munmap: the backing
// goes to the address space's freelist and serves the next arena, which
// must read all zero. The arena is parked with the instance's pages
// still committed (a zero used range skips put's decommit), so the
// munmap is the only scrub.
func TestDiscardedArenaIsScrubbed(t *testing.T) {
	as := testAS()
	pool := NewArenaPool()
	defer pool.Drain()
	cfg := Config{Strategy: Uffd, AS: as, MinPages: scrubMinPages, MaxPages: scrubMaxPages, Pool: pool}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dirtySparse(t, m)
	dirty := &m.mapping.Data()[0]
	if err := pool.put(m.arena, 0); err != nil {
		t.Fatal(err)
	}
	m.closed = true // the arena is parked; Close must not return it twice
	pool.Drain()
	if got := as.Snapshot().MunmapCalls; got != 1 {
		t.Fatalf("munmap calls %d after drain, want 1", got)
	}
	if got := as.ResidentBytes(); got != 0 {
		t.Errorf("resident %d after drain, want 0", got)
	}
	m2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	data := m2.mapping.Data()
	if &data[0] != dirty {
		t.Fatal("new arena did not recycle the drained backing; the test checks nothing")
	}
	if i := firstNonZero(data); i >= 0 {
		t.Errorf("backing of a drained arena: byte %#x = %#x, want all zero", i, data[i])
	}
}

// TestNoneTrapsPastBacking: none's first-touch miss path covers the
// backing and no more; past it the access still traps, and the range
// check still refuses.
func TestNoneTrapsPastBacking(t *testing.T) {
	m := newMem(t, None, 1, 4)
	backing := m.mapping.Backing()
	for _, addr := range []uint64{backing, backing - 4, backing + wasm.PageSize, 1 << 40} {
		tr := catchTrap(func() { m.StoreU64(addr, 1) })
		if tr == nil || tr.Kind != trap.OutOfBounds {
			t.Errorf("store at %#x: trap %v, want out-of-bounds", addr, tr)
		}
		if _, ok := m.CheckRange(addr, 8, true); ok {
			t.Errorf("CheckRange(%#x, 8) succeeded past the backing", addr)
		}
	}
	if got := m.mapping.CommittedBytes(); got != wasm.PageSize {
		t.Errorf("committed %d bytes after refused accesses, want only the initial page", got)
	}
	// The last in-backing slot is still reachable.
	m.StoreU64(backing-8, 7)
	if m.LoadU64(backing-8) != 7 {
		t.Error("last slot of the backing not accessible")
	}
}
