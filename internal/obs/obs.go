// Package obs is the process-wide observability spine: one registry
// of allocation-free metrics (atomic counters, gauges, fixed-bucket
// histograms) plus a lock-free ring buffer of causal spans,
// shared by every layer of the simulator — the simulated kernel
// (vmm), the linear-memory strategies (mem), the engines, the
// benchmarking harness and the host sampler (sysmon).
//
// The design goal is that the paper's mechanism claims — "mprotect
// serializes on the mmap lock, uffd does not" — ship attached to
// every figure: each harness run labels a Scope, each layer registers
// its counters under that scope, and a single Snapshot carries the
// whole cross-layer story to a sink (JSON for a machine, a text
// summary for a person).
//
// Hot-path discipline: Counter.Add and Histogram.Observe are single
// atomic RMWs on pre-resolved pointers; a span writes two fixed-size
// slots of a bounded MPMC ring and drops (counting the drop) rather
// than blocking when the ring is full. Metric registration
// (the map lookups) happens at setup time only. All metric and scope
// methods are nil-receiver safe no-ops so uninstrumented paths cost
// one predictable branch.
package obs

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n. No-op on a nil counter.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one. No-op on a nil counter.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current value (0 for a nil counter).
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous atomic value (resident bytes, active
// threads, last sampled CPU utilization).
type Gauge struct{ v atomic.Int64 }

// Set stores v. No-op on a nil gauge.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adjusts the gauge by delta. No-op on a nil gauge.
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Load returns the current value (0 for a nil gauge).
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the number of exponential histogram buckets. Bucket
// i counts observations v with 64<<(i-1) < v <= 64<<i (bucket 0
// catches v <= 64); the last bucket is the overflow. With 26 buckets
// the top finite bound is 64<<24 ns ≈ 1.07 s — ample for the
// latencies under study (lock waits, fault handling, GC pauses).
const histBuckets = 26

// Histogram is a fixed-bucket exponential latency histogram. The
// unit is conventionally nanoseconds but the histogram itself is
// unit-agnostic.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
}

// bucketFor maps an observation to its bucket index.
func bucketFor(v int64) int {
	if v <= 64 {
		return 0
	}
	b := bits.Len64(uint64(v-1)) - 6 // 65..128 -> 1, 129..256 -> 2, ...
	if b >= histBuckets {
		return histBuckets - 1
	}
	return b
}

// bucketBound returns the inclusive upper bound of bucket i, or -1
// for the overflow bucket.
func bucketBound(i int) int64 {
	if i >= histBuckets-1 {
		return -1
	}
	return 64 << i
}

// Observe records one value. No-op on a nil histogram.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.buckets[bucketFor(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// HistogramSnapshot is a plain-value copy of a histogram, including
// bucket-interpolated percentiles (0 when the histogram is empty).
type HistogramSnapshot struct {
	Count   int64         `json:"count"`
	Sum     int64         `json:"sum"`
	Buckets []BucketCount `json:"buckets,omitempty"`
	P50     int64         `json:"p50,omitempty"`
	P95     int64         `json:"p95,omitempty"`
	P99     int64         `json:"p99,omitempty"`
}

// Quantile estimates the q-th quantile (0 < q <= 1) by linear
// interpolation inside the containing bucket. The overflow bucket has
// no upper bound, so quantiles landing there report its lower bound —
// a deliberate under-estimate rather than an invented tail.
func (s HistogramSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 || q <= 0 {
		return 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum float64
	for _, b := range s.Buckets {
		prev := cum
		cum += float64(b.N)
		if cum < rank {
			continue
		}
		upper := b.Le
		if upper < 0 { // overflow bucket
			return maxFiniteBound
		}
		lower := int64(0)
		if upper > 64 {
			lower = upper / 2
		}
		frac := (rank - prev) / float64(b.N)
		return lower + int64(frac*float64(upper-lower))
	}
	return maxFiniteBound
}

// maxFiniteBound is the top finite bucket bound, reported for
// quantiles that land in the overflow bucket.
const maxFiniteBound = int64(64) << (histBuckets - 2)

// BucketCount is one non-empty bucket: Le is the inclusive upper
// bound (-1 for the overflow bucket), N the observation count.
type BucketCount struct {
	Le int64 `json:"le"`
	N  int64 `json:"n"`
}

func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Count: h.count.Load(), Sum: h.sum.Load()}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			s.Buckets = append(s.Buckets, BucketCount{Le: bucketBound(i), N: n})
		}
	}
	s.P50 = s.Quantile(0.50)
	s.P95 = s.Quantile(0.95)
	s.P99 = s.Quantile(0.99)
	return s
}

// defaultTraceCapacity is the trace-ring size (slots) of a registry
// built with NewRegistry.
const defaultTraceCapacity = 1 << 14

// Registry holds every metric and the trace ring for one observation
// domain (typically one benchmark run, or one simulated process when
// used standalone). Registration is mutex-guarded; the returned
// metric handles are lock-free.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	scopes   map[string]*Scope
	// scopeNames[i] is the scope path interned as id i, resolved when
	// events are snapshotted.
	scopeNames []string

	ring  *ring
	start time.Time

	// tracing gates span recording (span.go); spanIDs allocates
	// registry-unique span IDs.
	tracing atomic.Bool
	spanIDs atomic.Int64
}

// NewRegistry returns a registry with the default trace capacity.
func NewRegistry() *Registry { return NewRegistrySized(defaultTraceCapacity) }

// NewRegistrySized returns a registry whose trace ring holds
// capacity events (rounded up to a power of two); capacity <= 0
// disables span tracing entirely (StartSpan returns the inert span),
// which is the "obs disabled" configuration for overhead comparisons.
func NewRegistrySized(capacity int) *Registry {
	r := &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		scopes:   make(map[string]*Scope),
		start:    time.Now(),
	}
	if capacity > 0 {
		r.ring = newRing(capacity)
	}
	return r
}

// Scope returns the named top-level scope, creating it on first use.
// Scopes are interned: the same name always yields the same scope
// (and therefore the same metrics).
func (r *Registry) Scope(name string) *Scope {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.scopeLocked(name)
}

func (r *Registry) scopeLocked(path string) *Scope {
	if s, ok := r.scopes[path]; ok {
		return s
	}
	s := &Scope{reg: r, path: path, id: uint32(len(r.scopeNames))}
	r.scopeNames = append(r.scopeNames, path)
	r.scopes[path] = s
	return s
}

// now returns nanoseconds since the registry started.
func (r *Registry) now() int64 { return int64(time.Since(r.start)) }

// Scope is a named view into a registry. Metrics created through a
// scope are registered under "<scope path>/<metric name>"; spans
// recorded through it carry the scope's interned id. A nil scope is a
// valid no-op sink.
type Scope struct {
	reg  *Registry
	path string
	id   uint32

	// Span time by kind (span.go): inclusive ns of the spans that ended
	// in this scope, and the ns of those that had a parent, under the
	// parent's kind. A snapshot lists the non-zero ones as the counters
	// "<path>/span_ns/<kind>" and "<path>/span_child_ns/<kind>".
	spanNs  [numSpanKinds]Counter
	childNs [numSpanKinds]Counter
}

// Child returns the sub-scope "<path>/<name>".
func (s *Scope) Child(name string) *Scope {
	if s == nil {
		return nil
	}
	return s.reg.Scope(s.path + "/" + name)
}

// Counter returns the scope's named counter, registering it on first
// use. Returns nil (a no-op counter) on a nil scope.
func (s *Scope) Counter(name string) *Counter {
	if s == nil {
		return nil
	}
	r := s.reg
	full := s.path + "/" + name
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[full]
	if !ok {
		c = &Counter{}
		r.counters[full] = c
	}
	return c
}

// Gauge returns the scope's named gauge, registering it on first use.
func (s *Scope) Gauge(name string) *Gauge {
	if s == nil {
		return nil
	}
	r := s.reg
	full := s.path + "/" + name
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[full]
	if !ok {
		g = &Gauge{}
		r.gauges[full] = g
	}
	return g
}

// RegisterCounter publishes a counter its owner already holds — a
// field of the owner's struct, or a package-level variable — as the
// scope's named counter, so the owner's Stats() and a registry
// snapshot read the same word and every event is counted once. The
// counter keeps whatever it counted before: a registry attached late
// sees totals, not since-attach deltas (readers that want a window
// subtract two snapshots). Registering the same counter again is a
// no-op; a different counter under the same name replaces the old one
// in snapshots. No-op on a nil scope.
func (s *Scope) RegisterCounter(name string, c *Counter) {
	if s == nil {
		return
	}
	s.reg.mu.Lock()
	s.reg.counters[s.path+"/"+name] = c
	s.reg.mu.Unlock()
}

// RegisterGauge is RegisterCounter for a gauge.
func (s *Scope) RegisterGauge(name string, g *Gauge) {
	if s == nil {
		return
	}
	s.reg.mu.Lock()
	s.reg.gauges[s.path+"/"+name] = g
	s.reg.mu.Unlock()
}

// Histogram returns the scope's named histogram, registering it on
// first use.
func (s *Scope) Histogram(name string) *Histogram {
	if s == nil {
		return nil
	}
	r := s.reg
	full := s.path + "/" + name
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[full]
	if !ok {
		h = &Histogram{}
		r.hists[full] = h
	}
	return h
}

// Snapshot is a consistent plain-value copy of a registry: every
// counter, gauge and histogram by full name, plus (optionally) the
// drained span events.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	Events     []EventRecord                `json:"events,omitempty"`
	// DroppedEvents counts span events lost to a full trace ring
	// (bounded loss: Events plus drops equals the events made).
	DroppedEvents int64 `json:"dropped_events,omitempty"`
}

// EventRecord is one trace event with its scope and kind resolved to
// strings, ready for sinks.
type EventRecord struct {
	TimeNs int64  `json:"t_ns"`
	Scope  string `json:"scope"`
	Kind   string `json:"kind"`
	A      int64  `json:"a"`
	B      int64  `json:"b"`
}

// Snapshot copies all metrics; when drainEvents is set it also
// consumes the trace ring into the snapshot (events are removed from
// the ring, so two draining snapshots partition the trace).
func (r *Registry) Snapshot(drainEvents bool) *Snapshot {
	if r == nil {
		return &Snapshot{Counters: map[string]int64{}}
	}
	s := &Snapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	r.mu.Lock()
	for name, c := range r.counters {
		s.Counters[name] = c.Load()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Load()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.snapshot()
	}
	for path, sc := range r.scopes {
		for k := range sc.spanNs {
			if v := sc.spanNs[k].Load(); v != 0 {
				s.Counters[path+spanNsInfix+SpanKind(k).String()] = v
			}
			if v := sc.childNs[k].Load(); v != 0 {
				s.Counters[path+spanChildNsInfix+SpanKind(k).String()] = v
			}
		}
	}
	names := append([]string(nil), r.scopeNames...)
	r.mu.Unlock()

	if r.ring != nil {
		s.DroppedEvents = r.ring.dropped.Load()
		if drainEvents {
			s.Events = r.drain(names)
		}
	}
	return s
}

// drain pops every buffered ring event, resolving scope names.
func (r *Registry) drain(names []string) []EventRecord {
	var dst []EventRecord
	for {
		ev, ok := r.ring.pop()
		if !ok {
			return dst
		}
		scope := ""
		if int(ev.Scope) < len(names) {
			scope = names[ev.Scope]
		}
		kind := SpanBegin
		if ev.End {
			kind = SpanEnd
		}
		dst = append(dst, EventRecord{
			TimeNs: ev.TimeNs,
			Scope:  scope,
			Kind:   kind,
			A:      ev.A,
			B:      ev.B,
		})
	}
}

// sortedKeys returns map keys in lexical order (for stable sinks).
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
