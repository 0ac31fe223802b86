package obs

import "sync/atomic"

// A trace is spans and nothing else — every other fact a layer reports
// is a counter, gauge or histogram in the registry — so a ring record
// is one end of a span. SpanBegin and SpanEnd are the two values of
// EventRecord.Kind.
const (
	// SpanBegin: a causal span opened. A = spanID<<8 | SpanKind,
	// B = parent span ID (0 = root). See span.go.
	SpanBegin = "span_begin"
	// SpanEnd: a causal span closed. A = spanID<<8 | SpanKind.
	SpanEnd = "span_end"
)

// Event is one fixed-size trace record. It contains no pointers so
// recording never allocates.
type Event struct {
	TimeNs int64
	Scope  uint32
	End    bool // a SpanEnd record; otherwise a SpanBegin
	A, B   int64
}

// ring is a bounded lock-free MPMC queue (Vyukov's design): each
// slot carries a sequence number that encodes whether it is free for
// the enqueuer or ready for the dequeuer of a given lap. Producers
// never block; when the ring is full the event is dropped and
// counted, giving the bounded-loss guarantee the trace needs under
// bursty recording.
type ring struct {
	mask    uint64
	slots   []ringSlot
	enq     atomic.Uint64
	deq     atomic.Uint64
	dropped atomic.Int64
}

type ringSlot struct {
	seq atomic.Uint64
	ev  Event
}

// newRing rounds capacity up to a power of two.
func newRing(capacity int) *ring {
	n := 1
	for n < capacity {
		n <<= 1
	}
	r := &ring{mask: uint64(n - 1), slots: make([]ringSlot, n)}
	for i := range r.slots {
		r.slots[i].seq.Store(uint64(i))
	}
	return r
}

// push enqueues ev, returning false (and counting a drop) when the
// ring is full.
func (r *ring) push(ev Event) bool {
	pos := r.enq.Load()
	for {
		slot := &r.slots[pos&r.mask]
		seq := slot.seq.Load()
		switch {
		case seq == pos: // slot free for this lap
			if r.enq.CompareAndSwap(pos, pos+1) {
				slot.ev = ev
				slot.seq.Store(pos + 1)
				return true
			}
			pos = r.enq.Load()
		case seq < pos: // full: dequeuer hasn't freed this slot yet
			r.dropped.Add(1)
			return false
		default: // another producer advanced past us
			pos = r.enq.Load()
		}
	}
}

// pop dequeues the oldest event, returning false when empty.
func (r *ring) pop() (Event, bool) {
	pos := r.deq.Load()
	for {
		slot := &r.slots[pos&r.mask]
		seq := slot.seq.Load()
		switch {
		case seq == pos+1: // slot ready for this lap
			if r.deq.CompareAndSwap(pos, pos+1) {
				ev := slot.ev
				slot.seq.Store(pos + uint64(len(r.slots)))
				return ev, true
			}
			pos = r.deq.Load()
		case seq <= pos: // empty
			return Event{}, false
		default:
			pos = r.deq.Load()
		}
	}
}
