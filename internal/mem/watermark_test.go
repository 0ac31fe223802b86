package mem

import (
	"sync"
	"testing"

	"leapsandbounds/internal/wasm"
)

// checkWatermark holds m to what an access through the unchecked
// pointer on a watermark hit relies on: every byte below the watermark
// lies in the committed prefix of the backing, and, under every
// strategy but none, inside the wasm-visible size. The watermark is read
// first: it, the committed prefix and the size only rise, so the
// comparison holds even while a sibling grows the memory.
func checkWatermark(t *testing.T, m *Memory, after string) {
	t.Helper()
	w := m.Watermark()
	if c := m.mapping.CommittedPrefix(0); w > c {
		t.Errorf("after %s: watermark %#x past the committed prefix %#x", after, w, c)
	}
	if m.strategy != None && w > m.SizeBytes() {
		t.Errorf("after %s: watermark %#x past the size %#x", after, w, m.SizeBytes())
	}
}

// TestWatermarkStaysInsideTheBacking pins the watermark invariant for
// every strategy after each event that moves it: instantiation, a
// first access (an mprotect fault commit, a uffd zero-page), a
// scattered commit past a hole, a grow, an access past the size (none's
// stray first touch; a trap or a clamp redirect elsewhere), a range
// check, and a fork from a snapshot and its first accesses.
func TestWatermarkStaysInsideTheBacking(t *testing.T) {
	const page = wasm.PageSize
	for _, s := range Strategies() {
		t.Run(s.String(), func(t *testing.T) {
			as := testAS()
			cfg := Config{Strategy: s, AS: as, MinPages: 2, MaxPages: 8}
			if s == Uffd {
				cfg.Pool = NewArenaPool()
			}
			m, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			checkWatermark(t, m, "instantiate")
			m.StoreU64(0, 1)
			checkWatermark(t, m, "a first access")
			m.StoreU8(page+5, 2)
			checkWatermark(t, m, "a scattered commit")
			if m.Grow(2) != 2 {
				t.Fatal("grow(2) from 2 pages failed")
			}
			checkWatermark(t, m, "grow")
			m.StoreU32(m.SizeBytes()-4, 3)
			checkWatermark(t, m, "an access at the last word")
			catchTrap(func() { m.LoadU64(m.SizeBytes()) })
			checkWatermark(t, m, "an access past the size")
			m.CheckRange(0, m.SizeBytes(), true)
			checkWatermark(t, m, "a range check over the size")

			snap, err := m.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			fork, err := NewFromSnapshot(forkCfg(s, as, cfg.Pool), snap)
			if err != nil {
				t.Fatal(err)
			}
			defer fork.Close()
			checkWatermark(t, fork, "a fork")
			if fork.LoadU64(0) != 1 {
				t.Error("fork lost the template's first word")
			}
			fork.StoreU64(3*page, 4)
			checkWatermark(t, fork, "a fork's first access")
			if fork.Grow(1) != 4 {
				t.Fatal("grow(1) of the fork failed")
			}
			catchTrap(func() { fork.StoreU8(fork.SizeBytes(), 5) })
			checkWatermark(t, fork, "a fork's grow and an access past its size")
		})
	}
}

// TestWatermarkUnderSiblingGrow holds the invariant on a shared memory
// while a sibling grows it one page at a time to its maximum and this
// goroutine writes the last word of whatever size it last observed.
func TestWatermarkUnderSiblingGrow(t *testing.T) {
	for _, s := range Strategies() {
		t.Run(s.String(), func(t *testing.T) {
			m := newSharedMem(t, s, 1, 16)
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for m.Grow(1) >= 0 {
				}
			}()
			for m.SizePages() < m.maxPages() {
				m.StoreU32(m.SizeBytes()-4, 1)
				checkWatermark(t, m, "a sibling's grow")
			}
			wg.Wait()
			m.StoreU32(m.SizeBytes()-4, 1)
			checkWatermark(t, m, "a sibling's grow to the maximum")
		})
	}
}
