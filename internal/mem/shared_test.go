package mem

import (
	"sync"
	"sync/atomic"
	"testing"

	"leapsandbounds/internal/trap"
	"leapsandbounds/internal/wasm"
)

// maxPages returns the page limit the memory was created with.
func (m *Memory) maxPages() uint32 { return uint32(m.maxBytes / wasm.PageSize) }

func newSharedMem(t *testing.T, s Strategy, minPages, maxPages uint32) *Memory {
	t.Helper()
	cfg := Config{Strategy: s, AS: testAS(), MinPages: minPages, MaxPages: maxPages, Shared: true}
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

// TestSharedGrowUnderTraffic is the mem-level half of the tentpole
// scenario: worker goroutines hammer disjoint slots (plain accessors,
// a test-local atomic word counting the rounds) while the main thread
// grows the memory to its max one page at a time, writing a probe
// into every freshly published page. All strategies must neither trap
// nor lose a write.
func TestSharedGrowUnderTraffic(t *testing.T) {
	for _, s := range Strategies() {
		t.Run(s.String(), func(t *testing.T) {
			const workers = 4
			const spins = 300
			m := newSharedMem(t, s, 1, 16)

			var wg sync.WaitGroup
			var stop atomic.Bool
			var rounds atomic.Uint64
			errs := make([]error, workers)
			wg.Add(workers)
			for w := 0; w < workers; w++ {
				go func(w int) {
					defer wg.Done()
					defer func() {
						if r := recover(); r != nil {
							if tr, ok := r.(*trap.Trap); ok {
								errs[w] = tr
								return
							}
							panic(r)
						}
					}()
					base := uint64(w) * 512
					for i := 0; i < spins; i++ {
						v := uint64(w)<<32 | uint64(i)
						m.StoreU64(base, v)
						if got := m.LoadU64(base); got != v {
							t.Errorf("worker %d: read back %#x, want %#x", w, got, v)
							return
						}
						rounds.Add(1)
						// Chase the published end: a per-worker slot on the
						// youngest page, racing the grower's publication
						// (disjoint across workers — plain stores at a shared
						// address would be a real data race).
						end := m.SizeBytes()
						m.StoreU64(end-64+8*uint64(w), v)
					}
					stop.Store(true)
				}(w)
			}

			grows := 0
			for m.SizePages() < m.maxPages() {
				old := m.Grow(1)
				if old < 0 {
					t.Fatalf("grow refused at %d pages (max %d)", m.SizePages(), m.maxPages())
				}
				grows++
				// Probe the freshly published page immediately.
				probe := uint64(old)*wasm.PageSize + 16
				m.StoreU64(probe, uint64(old))
				if got := m.LoadU64(probe); got != uint64(old) {
					t.Fatalf("fresh page %d: read back %#x", old, got)
				}
			}
			if m.Grow(1) != -1 {
				t.Fatal("grow past max succeeded")
			}
			wg.Wait()
			for w, err := range errs {
				if err != nil {
					t.Errorf("worker %d trapped: %v", w, err)
				}
			}
			if got := rounds.Load(); got != workers*spins {
				t.Errorf("rounds completed: %d, want %d", got, workers*spins)
			}
			if got := m.Generation(); got != uint64(grows) {
				t.Errorf("generation %d after %d grows", got, grows)
			}
			if m.SizePages() != m.maxPages() {
				t.Errorf("final size %d pages, want max %d", m.SizePages(), m.maxPages())
			}
		})
	}
}

// TestSharedConcurrentGrow: racing growers serialize on the grow
// mutex; every successful grow returns a distinct old size and the
// total adds up exactly.
func TestSharedConcurrentGrow(t *testing.T) {
	for _, s := range Strategies() {
		t.Run(s.String(), func(t *testing.T) {
			const growers = 8
			m := newSharedMem(t, s, 1, 1+growers)
			olds := make(chan int32, growers)
			var wg sync.WaitGroup
			wg.Add(growers)
			for g := 0; g < growers; g++ {
				go func() {
					defer wg.Done()
					olds <- m.Grow(1)
				}()
			}
			wg.Wait()
			close(olds)
			seen := map[int32]bool{}
			for old := range olds {
				if old < 0 {
					t.Fatal("grow within max refused")
				}
				if seen[old] {
					t.Fatalf("two grows returned old size %d", old)
				}
				seen[old] = true
			}
			if m.SizePages() != 1+growers {
				t.Fatalf("final size %d pages, want %d", m.SizePages(), 1+growers)
			}
		})
	}
}

func TestSharedSnapshotRefused(t *testing.T) {
	for _, s := range Strategies() {
		t.Run(s.String(), func(t *testing.T) {
			m := newSharedMem(t, s, 1, 4)
			if _, err := m.Snapshot(); err == nil {
				t.Fatal("snapshot of a shared memory succeeded")
			}
		})
	}
}
