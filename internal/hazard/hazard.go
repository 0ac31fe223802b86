// Package hazard implements hazard pointers (Michael, 2004): safe
// memory reclamation for lock-free data structures.
//
// The paper's userfaultfd-based bounds checking manages WebAssembly
// memory arenas with "an atomic integer variable controlling the size
// of each memory arena, and a hazard pointer-style implementation for
// adding and removing memory arenas" (§4.2.1). This package provides
// that registry: readers (page-fault handlers) protect an arena
// pointer without locks, while writers retire arenas that are freed
// once no reader holds them.
package hazard

import (
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"leapsandbounds/internal/obs"
)

// ptrOf erases a typed pointer for identity comparison in the hazard
// slots; no pointer arithmetic is performed.
func ptrOf[T any](p *T) unsafe.Pointer { return unsafe.Pointer(p) }

// maxReaders is the number of hazard slots in a Domain. Each
// concurrently protecting goroutine needs one slot; the benchmark
// harness never exceeds the hardware thread count.
const maxReaders = 128

// Domain is a set of hazard slots plus a retirement list. The zero
// value is ready to use.
type Domain struct {
	slots [maxReaders]slot

	// Reclamation telemetry, the domain's own: how many pointers were
	// retired, how many reclaimed, and how many are parked waiting for
	// a reader. AttachObs registers these same objects in a registry.
	nRetired   obs.Counter
	nReclaimed obs.Counter
	pending    obs.Gauge
	// sc is the scope reclamation-batch spans record into (nil until
	// AttachObs).
	sc atomic.Pointer[obs.Scope]

	mu      sync.Mutex
	retired []retiredPtr
}

// AttachObs registers the domain's reclamation counters under sc and,
// when tracing is enabled, records a hazard.reclaim span per
// reclamation batch there. A nil scope stops the spans. Safe to call
// at any time; the counters cover the domain's whole life.
func (d *Domain) AttachObs(sc *obs.Scope) {
	d.sc.Store(sc)
	sc.RegisterCounter("retired", &d.nRetired)
	sc.RegisterCounter("reclaimed", &d.nReclaimed)
	sc.RegisterGauge("pending", &d.pending)
}

type slot struct {
	ptr atomic.Pointer[byte]
	// Pad to a cache line so readers do not false-share.
	_ [56]byte
}

type retiredPtr struct {
	p       *byte
	reclaim func()
}

// Slot is a claimed hazard slot. It must be released when the reader
// goroutine no longer protects pointers.
type Slot struct {
	d   *Domain
	idx int
}

// inUse marks claimed slots; stored in slot.ptr as a sentinel when
// the slot is claimed but protecting nothing.
var inUse byte

// Acquire claims a free hazard slot, spinning if all slots are
// momentarily claimed (which does not happen with fewer than
// maxReaders concurrent readers).
func (d *Domain) Acquire() *Slot {
	for {
		for i := range d.slots {
			if d.slots[i].ptr.CompareAndSwap(nil, &inUse) {
				return &Slot{d: d, idx: i}
			}
		}
	}
}

// Release frees the slot.
func (s *Slot) Release() {
	s.d.slots[s.idx].ptr.Store(nil)
}

// Protect publishes p as protected by this slot and re-validates that
// src still points to p, retrying the publish until the read is
// consistent. It returns the protected pointer (possibly updated).
func Protect[T any](s *Slot, src *atomic.Pointer[T]) *T {
	for {
		p := src.Load()
		if p == nil {
			s.d.slots[s.idx].ptr.Store(&inUse)
			return nil
		}
		s.d.slots[s.idx].ptr.Store((*byte)(ptrOf(p)))
		// Re-check: if src changed between load and publish, the
		// writer may have retired p before seeing our hazard.
		if src.Load() == p {
			return p
		}
	}
}

// Clear stops protecting whatever the slot currently protects while
// keeping the slot claimed.
func (s *Slot) Clear() {
	s.d.slots[s.idx].ptr.Store(&inUse)
}

// Retire schedules p for reclamation once no hazard slot protects
// it. reclaim runs exactly once, possibly inside a later Retire call.
func Retire[T any](d *Domain, p *T, reclaim func()) {
	if p == nil {
		return
	}
	d.mu.Lock()
	d.retired = append(d.retired, retiredPtr{p: (*byte)(ptrOf(p)), reclaim: reclaim})
	ready := d.scanLocked()
	d.pending.Set(int64(len(d.retired)))
	d.mu.Unlock()
	d.nRetired.Inc()
	d.runReclaims(ready)
}

// Flush attempts to reclaim everything currently retired; pointers
// still protected remain queued. It returns the number reclaimed.
func (d *Domain) Flush() int {
	d.mu.Lock()
	ready := d.scanLocked()
	d.pending.Set(int64(len(d.retired)))
	d.mu.Unlock()
	d.runReclaims(ready)
	return len(ready)
}

// runReclaims runs a batch of reclaim callbacks outside the domain
// lock and counts the batch; with a tracing scope attached it also
// records a retroactive hazard.reclaim span covering the callbacks'
// wall time. Reclaimers run exactly as they would untraced.
func (d *Domain) runReclaims(ready []retiredPtr) {
	if len(ready) == 0 {
		return
	}
	sc := d.sc.Load()
	traced := sc.TracingEnabled()
	var t0 time.Time
	if traced {
		t0 = time.Now()
	}
	for _, r := range ready {
		r.reclaim()
	}
	d.nReclaimed.Add(int64(len(ready)))
	if traced {
		sc.EndedSpan(obs.SpanHazardReclaim, obs.SpanRef{}, time.Since(t0).Nanoseconds())
	}
}

// scanLocked partitions the retired list into reclaimable and still-
// protected entries, keeping the latter; the caller runs the
// reclaimers after dropping the lock.
func (d *Domain) scanLocked() []retiredPtr {
	if len(d.retired) == 0 {
		return nil
	}
	protected := make(map[*byte]bool, maxReaders)
	for i := range d.slots {
		if p := d.slots[i].ptr.Load(); p != nil && p != &inUse {
			protected[p] = true
		}
	}
	var ready, keep []retiredPtr
	for _, r := range d.retired {
		if protected[r.p] {
			keep = append(keep, r)
		} else {
			ready = append(ready, r)
		}
	}
	d.retired = keep
	return ready
}
