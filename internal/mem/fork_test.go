package mem

import (
	"testing"

	"leapsandbounds/internal/vmm"
	"leapsandbounds/internal/wasm"
)

// forkCfg builds a fork Config matching the template's strategy on a
// given address space.
func forkCfg(s Strategy, as *vmm.AddressSpace, pool *ArenaPool) Config {
	cfg := Config{Strategy: s, AS: as}
	if s == Uffd {
		cfg.Pool = pool
	}
	return cfg
}

func TestForkPreservesContentsAndGrowState(t *testing.T) {
	for _, s := range Strategies() {
		t.Run(s.String(), func(t *testing.T) {
			as := testAS()
			var pool *ArenaPool
			cfg := Config{Strategy: s, AS: as, MinPages: 2, MaxPages: 16}
			if s == Uffd {
				pool = NewArenaPool()
				cfg.Pool = pool
			}
			tmpl, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Warm the template: write a pattern, grow, write past the
			// original limit so the snapshot captures grow state too.
			for a := uint64(0); a < 256; a += 8 {
				tmpl.StoreU64(a, a^0xdeadbeef)
			}
			if tmpl.Grow(3) < 0 {
				t.Fatal("grow failed")
			}
			grownAddr := uint64(4 * wasm.PageSize)
			tmpl.StoreU64(grownAddr, 0x1234)

			snap, err := tmpl.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			// Template keeps running after the snapshot; later writes
			// must not leak into forks.
			tmpl.StoreU64(0, 0xffff)
			if err := tmpl.Close(); err != nil {
				t.Fatal(err)
			}

			fork, err := NewFromSnapshot(forkCfg(s, as, pool), snap)
			if err != nil {
				t.Fatal(err)
			}
			defer fork.Close()
			if fork.SizePages() != 5 {
				t.Errorf("fork size %d pages, want 5 (grown template)", fork.SizePages())
			}
			if got := fork.LoadU64(0); got != 0^0xdeadbeef {
				t.Errorf("fork[0] = %#x, want %#x (pre-snapshot value)", got, uint64(0xdeadbeef))
			}
			for a := uint64(8); a < 256; a += 8 {
				if got := fork.LoadU64(a); got != a^0xdeadbeef {
					t.Fatalf("fork[%d] = %#x, want %#x", a, got, a^0xdeadbeef)
				}
			}
			if got := fork.LoadU64(grownAddr); got != 0x1234 {
				t.Errorf("fork[grown] = %#x, want 0x1234", got)
			}
			// The fork can keep growing from the template's size.
			if fork.Grow(2) != 5 {
				t.Error("fork grow returned wrong previous size")
			}
			if got := fork.LoadU64(uint64(6 * wasm.PageSize)); got != 0 {
				t.Errorf("fresh fork page = %#x, want 0", got)
			}

			// Forks are independent of each other.
			fork2, err := NewFromSnapshot(forkCfg(s, as, pool), snap)
			if err != nil {
				t.Fatal(err)
			}
			defer fork2.Close()
			fork.StoreU64(16, 0x42)
			if got := fork2.LoadU64(16); got != 16^0xdeadbeef {
				t.Errorf("fork write visible in sibling: %#x", got)
			}
		})
	}
}

func TestForkSnapshotOfForkChains(t *testing.T) {
	as := testAS()
	cfg := Config{Strategy: Trap, AS: as, MinPages: 1, MaxPages: 8}
	tmpl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer tmpl.Close()
	tmpl.StoreU64(0, 1)
	snap, err := tmpl.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	f1, err := NewFromSnapshot(Config{Strategy: Trap, AS: as}, snap)
	if err != nil {
		t.Fatal(err)
	}
	defer f1.Close()
	f1.StoreU64(8, 2)
	snap2, err := f1.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	f2, err := NewFromSnapshot(Config{Strategy: Trap, AS: as}, snap2)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	if f2.LoadU64(0) != 1 || f2.LoadU64(8) != 2 {
		t.Error("re-snapshotted fork lost state")
	}
}

func TestForkCrossStrategy(t *testing.T) {
	// A snapshot is strategy-agnostic: a trap template can seed an
	// mprotect fork and vice versa (the serve driver relies on this
	// being impossible to get wrong, not on using it).
	as := testAS()
	tmpl, err := New(Config{Strategy: Mprotect, AS: as, MinPages: 1, MaxPages: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer tmpl.Close()
	tmpl.StoreU32(100, 7)
	snap, err := tmpl.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	fork, err := NewFromSnapshot(Config{Strategy: Trap, AS: as}, snap)
	if err != nil {
		t.Fatal(err)
	}
	defer fork.Close()
	if fork.Strategy() != Trap || fork.LoadU32(100) != 7 {
		t.Error("cross-strategy fork wrong")
	}
}

func TestForkOutOfBoundsMatchesFresh(t *testing.T) {
	for _, s := range Strategies() {
		t.Run(s.String(), func(t *testing.T) {
			as := testAS()
			var pool *ArenaPool
			cfg := Config{Strategy: s, AS: as, MinPages: 1, MaxPages: 2}
			if s == Uffd {
				pool = NewArenaPool()
				cfg.Pool = pool
			}
			tmpl, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer tmpl.Close()
			snap, err := tmpl.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			fork, err := NewFromSnapshot(forkCfg(s, as, pool), snap)
			if err != nil {
				t.Fatal(err)
			}
			defer fork.Close()
			oob := uint64(wasm.PageSize) // one past the 1-page size
			fresh := catchTrap(func() { tmpl.LoadU64(oob) })
			forked := catchTrap(func() { fork.LoadU64(oob) })
			if (fresh == nil) != (forked == nil) {
				t.Fatalf("trap mismatch: fresh=%v fork=%v", fresh, forked)
			}
			if fresh != nil && fresh.Kind != forked.Kind {
				t.Errorf("trap kind mismatch: fresh=%v fork=%v", fresh.Kind, forked.Kind)
			}
		})
	}
}

// TestForkSharesPoolPollServer is the forked-mapping companion of the
// PR 1 one-pool regression test: a pooled uffd fork in poll mode must
// register with the process pool's existing handler thread, never
// spawn a second poller.
func TestForkSharesPoolPollServer(t *testing.T) {
	as := testAS()
	pool := NewArenaPool()
	defer pool.Drain()
	tmpl, err := New(Config{Strategy: Uffd, AS: as, MinPages: 1, MaxPages: 4, Pool: pool, UffdPoll: true})
	if err != nil {
		t.Fatal(err)
	}
	tmpl.StoreU64(0, 9)
	if tmpl.poll != pool.pollServer {
		t.Fatal("template did not adopt the pool's poll server")
	}
	snap, err := tmpl.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := tmpl.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		fork, err := NewFromSnapshot(Config{Strategy: Uffd, AS: as, Pool: pool, UffdPoll: true}, snap)
		if err != nil {
			t.Fatal(err)
		}
		if fork.poll != pool.pollServer {
			t.Fatalf("fork %d spawned its own poll server", i)
		}
		// The fault must round-trip through the shared poller and
		// still install template content.
		if got := fork.LoadU64(0); got != 9 {
			t.Fatalf("fork %d poll-mode fault returned %#x, want 9", i, got)
		}
		if err := fork.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPoolPutClearsForkSource(t *testing.T) {
	as := testAS()
	pool := NewArenaPool()
	defer pool.Drain()
	tmpl, err := New(Config{Strategy: Uffd, AS: as, MinPages: 1, MaxPages: 4, Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	tmpl.StoreU64(0, 0x77)
	snap, err := tmpl.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := tmpl.Close(); err != nil {
		t.Fatal(err)
	}
	fork, err := NewFromSnapshot(Config{Strategy: Uffd, AS: as, Pool: pool}, snap)
	if err != nil {
		t.Fatal(err)
	}
	// The borrowed arena carries the template image...
	if got := fork.LoadU64(0); got != 0x77 {
		t.Fatalf("fork content %#x, want 0x77", got)
	}
	if err := fork.Close(); err != nil {
		t.Fatal(err)
	}
	// The recycled arena must be detached from the template image and
	// hand out zeros again.
	fresh, err := New(Config{Strategy: Uffd, AS: as, MinPages: 1, MaxPages: 4, Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if got := fresh.LoadU64(0); got != 0 {
		t.Errorf("recycled arena leaked template content: %#x", got)
	}
	if st := pool.stats(); st.Reused == 0 {
		t.Error("fresh instance did not reuse the fork's arena")
	}
}

func TestForkSnapshotClosedMemoryFails(t *testing.T) {
	m := newMem(t, Trap, 1, 2)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Snapshot(); err == nil {
		t.Error("snapshot of closed memory succeeded")
	}
}

// TestNewAndForkOfFreshAgree pins the two entry points to one
// behaviour: a fork of a just-created memory's snapshot is
// indistinguishable from a fresh memory — geometry, committed bytes,
// access results, the out-of-bounds trap, grow, and the kernel work of
// the whole lifecycle (every vmm counter but the two that count
// copy-on-write itself and the three that time the mmap lock).
func TestNewAndForkOfFreshAgree(t *testing.T) {
	type lifecycleState struct {
		size, committed      uint64
		maxPages             uint32
		strategy             Strategy
		first, last, pastEnd uint64
		pastEndTrap          string
		grow                 int32
		vm                   vmm.StatsSnapshot
	}
	lifecycle := func(t *testing.T, as *vmm.AddressSpace, m *Memory) lifecycleState {
		t.Helper()
		o := lifecycleState{
			size:      m.SizeBytes(),
			committed: m.mapping.CommittedBytes(),
			maxPages:  m.maxPages(),
			strategy:  m.Strategy(),
		}
		o.first = m.LoadU64(0)
		o.last = m.LoadU64(o.size - 8)
		if tr := catchTrap(func() { o.pastEnd = m.LoadU64(o.size) }); tr != nil {
			o.pastEndTrap = tr.Error()
		}
		o.grow = m.Grow(1)
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		o.vm = as.Snapshot()
		o.vm.CowForks, o.vm.CowPagesCopied = 0, 0
		o.vm.LockWaitNs, o.vm.LockHoldNs, o.vm.LockContended = 0, 0, 0
		return o
	}
	for _, tc := range []struct {
		name   string
		s      Strategy
		pooled bool
		knobs  Config
	}{
		{"none", None, false, Config{}},
		{"clamp", Clamp, false, Config{}},
		{"trap", Trap, false, Config{}},
		{"mprotect", Mprotect, false, Config{}},
		{"mprotect/eager", Mprotect, false, Config{EagerCommit: true}},
		{"uffd/pooled", Uffd, true, Config{}},
		{"uffd/pooled/poll", Uffd, true, Config{UffdPoll: true}},
		{"uffd/nopool", Uffd, false, Config{DisablePool: true}},
		{"uffd/nopool/poll", Uffd, false, Config{DisablePool: true, UffdPoll: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Each memory gets its own address space (and pool), so an
			// arm's counters hold its lifecycle and nothing else.
			cfg := func() Config {
				c := tc.knobs
				c.Strategy, c.AS, c.MinPages, c.MaxPages = tc.s, testAS(), 2, 8
				if tc.pooled {
					c.Pool = NewArenaPool()
					t.Cleanup(c.Pool.Drain)
				}
				return c
			}
			donor, err := New(cfg())
			if err != nil {
				t.Fatal(err)
			}
			snap, err := donor.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if err := donor.Close(); err != nil {
				t.Fatal(err)
			}

			freshCfg := cfg()
			fresh, err := New(freshCfg)
			if err != nil {
				t.Fatal(err)
			}
			forkCfg := cfg()
			fork, err := NewFromSnapshot(forkCfg, snap)
			if err != nil {
				t.Fatal(err)
			}
			want, got := lifecycle(t, freshCfg.AS, fresh), lifecycle(t, forkCfg.AS, fork)
			if got != want {
				t.Errorf("New and NewFromSnapshot(fresh snapshot) disagree:\nfresh %+v\nfork  %+v", want, got)
			}
		})
	}
}
