package hazard

import (
	"sync"
	"sync/atomic"
	"testing"
)

type arena struct {
	id   int
	data []byte
}

func TestProtectPreventsReclaim(t *testing.T) {
	var d Domain
	var ptr atomic.Pointer[arena]
	a := &arena{id: 1}
	ptr.Store(a)

	s := d.Acquire()
	got := Protect(s, &ptr)
	if got != a {
		t.Fatal("Protect returned wrong pointer")
	}

	reclaimed := false
	ptr.Store(nil)
	Retire(&d, a, func() { reclaimed = true })
	if reclaimed {
		t.Fatal("arena reclaimed while protected")
	}
	if got := d.pending.Load(); got != 1 {
		t.Fatalf("pending %d, want 1", got)
	}

	s.Clear()
	if n := d.Flush(); n != 1 {
		t.Fatalf("flush reclaimed %d, want 1", n)
	}
	if !reclaimed {
		t.Fatal("arena not reclaimed after hazard cleared")
	}
	s.Release()
}

func TestRetireUnprotectedReclaimsImmediately(t *testing.T) {
	var d Domain
	a := &arena{id: 2}
	reclaimed := false
	Retire(&d, a, func() { reclaimed = true })
	if !reclaimed {
		t.Fatal("unprotected arena should reclaim on Retire")
	}
	if got := d.pending.Load(); got != 0 {
		t.Fatalf("pending %d, want 0", got)
	}
}

func TestRetireNil(t *testing.T) {
	var d Domain
	Retire[arena](&d, nil, func() { t.Fatal("reclaim called for nil") })
}

func TestProtectObservesSwap(t *testing.T) {
	// If the pointer changes between load and publish, Protect must
	// retry and return the current value.
	var d Domain
	var ptr atomic.Pointer[arena]
	a := &arena{id: 1}
	ptr.Store(a)
	s := d.Acquire()
	defer s.Release()
	got := Protect(s, &ptr)
	if got == nil || got.id != 1 {
		t.Fatalf("got %+v", got)
	}
	ptr.Store(nil)
	if got := Protect(s, &ptr); got != nil {
		t.Fatalf("Protect of nil pointer returned %+v", got)
	}
}

// TestConcurrentUseAfterFreeDetection hammers a shared pointer with
// readers protecting it and a writer swapping and retiring arenas.
// Reclaimed arenas are poisoned; readers must never observe poison.
func TestConcurrentUseAfterFree(t *testing.T) {
	var d Domain
	var ptr atomic.Pointer[arena]
	const poisoned = -1

	ptr.Store(&arena{id: 0, data: make([]byte, 8)})

	var stop atomic.Bool
	var wg sync.WaitGroup

	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := d.Acquire()
			defer s.Release()
			for !stop.Load() {
				a := Protect(s, &ptr)
				if a == nil {
					continue
				}
				if a.id == poisoned {
					t.Error("observed reclaimed arena")
					s.Clear()
					return
				}
				s.Clear()
			}
		}()
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i <= 3000; i++ {
			old := ptr.Swap(&arena{id: i, data: make([]byte, 8)})
			Retire(&d, old, func() { old.id = poisoned })
		}
		stop.Store(true)
	}()

	wg.Wait()
	d.Flush()
}

func TestSlotExhaustionAndReuse(t *testing.T) {
	var d Domain
	slots := make([]*Slot, 0, maxReaders)
	for i := 0; i < maxReaders; i++ {
		slots = append(slots, d.Acquire())
	}
	// Release one; a new Acquire must succeed promptly.
	slots[0].Release()
	s := d.Acquire()
	s.Release()
	for _, sl := range slots[1:] {
		sl.Release()
	}
}
