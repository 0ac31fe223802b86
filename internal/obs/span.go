package obs

// Causal span tracing: begin/end pairs recorded into the registry's
// existing lock-free event ring, with parent links so a drained trace
// reconstructs the tree of what happened inside a run — iteration →
// invoke → fault → kernel.mprotect → vma_lock_wait. Spans are
// allocation-free (a Span is a three-word value, events are the
// fixed-size ring slots) and follow the ring's drop-don't-block
// discipline. The whole layer is off by default: StartSpan costs a
// nil check plus one atomic load when tracing is disabled, so
// instrumented hot paths pay nothing measurable until someone calls
// Registry.EnableTracing(true).
//
// Encoding: a span occupies two events, EvSpanBegin and EvSpanEnd.
// Both carry A = spanID<<8 | kind (IDs are registry-unique, kinds fit
// in a byte); the begin event's B is the parent span's ID (0 = root).
// Lock waits, which are only known retroactively, use EndedSpan to
// emit a completed pair whose begin timestamp is backdated by the
// measured duration.

// SpanKind classifies spans. The set mirrors the layers the paper's
// analysis decomposes a run into: harness phases, engine execution,
// fault handling, and the kernel operations under the mmap lock.
type SpanKind uint8

// Span kinds.
const (
	// The zero value is no span; never recorded.
	_ SpanKind = iota
	// SpanRun covers one harness.Run (all phases, all workers).
	SpanRun
	// SpanIter covers one isolate lifecycle (instantiate → invoke →
	// close) inside a run.
	SpanIter
	// SpanInstantiate covers engine-independent instantiation
	// (memory mmap, segment initialization).
	SpanInstantiate
	// SpanInvoke covers one exported-function invocation.
	SpanInvoke
	// SpanFault covers one simulated signal-handler entry (SIGSEGV
	// or SIGBUS path) resolving a missed access.
	SpanFault
	// SpanKernelMmap/Munmap/Mprotect cover the simulated syscalls,
	// including their time under the mmap lock.
	SpanKernelMmap
	SpanKernelMunmap
	SpanKernelMprotect
	// SpanVMALockWait is the time a thread spent blocked on the
	// process mmap lock before acquiring it (emitted retroactively,
	// only for waits past the contention threshold).
	SpanVMALockWait
	// SpanUffdCopy covers lock-free userfaultfd page population
	// (UFFDIO_ZEROPAGE analog); SpanUffdDecommit the reverse
	// (MADV_DONTNEED analog) during arena recycling.
	SpanUffdCopy
	SpanUffdDecommit
	// SpanPoolGet/Put cover arena-pool acquisition and recycling.
	SpanPoolGet
	SpanPoolPut
	// SpanTierUp covers one background optimizing-tier compile in the
	// tiered engine (the V8 TurboFan analog), including the simulated
	// compiler work.
	SpanTierUp
	// SpanGCPause covers one stop-the-world collection in the tiered
	// engine: safepoint wait for running invocations plus the pause.
	SpanGCPause
	// SpanSafepointWait is the time an invocation spent blocked on
	// the tiered engine's world lock waiting out a GC pause (emitted
	// retroactively, like SpanVMALockWait, past the same threshold).
	SpanSafepointWait
	// SpanHazardReclaim covers one reclamation batch in the hazard
	// domain: retired arenas freed once no reader protects them.
	SpanHazardReclaim
	// SpanPoolDrain covers ArenaPool.Drain teardown (kernel.munmap
	// children for every pooled arena).
	SpanPoolDrain
	// SpanRIRLower covers one function body's trip through the
	// register-IR lowering pipeline (build, optimize, lower, fuse);
	// emitted retroactively once the pipeline finishes.
	SpanRIRLower
	// SpanSnapshot covers freezing a template instance's state (the
	// memory-image copy plus globals/table capture).
	SpanSnapshot
	// SpanFork covers instantiating one instance from a template
	// snapshot (copy-on-write mapping setup, state restore).
	SpanFork
	// SpanHostcall covers one host (WASI) function call made by the
	// guest: from the engine handing control to the embedder until
	// the host function returns. Nested under the invoke span, so
	// attribution can split guest execution from boundary time.
	SpanHostcall
	numSpanKinds
)

var spanKindNames = [numSpanKinds]string{
	"none", "run", "iter", "instantiate", "invoke", "fault",
	"kernel.mmap", "kernel.munmap", "kernel.mprotect",
	"vma_lock_wait", "uffd.copy", "uffd.decommit",
	"pool.get", "pool.put",
	"tier_up", "gc_pause", "safepoint_wait",
	"hazard.reclaim", "pool.drain", "rir.lower",
	"snapshot", "fork", "hostcall",
}

func (k SpanKind) String() string {
	if int(k) < len(spanKindNames) {
		return spanKindNames[k]
	}
	return "span(?)"
}

// SpanRef names a span for parent linkage. The zero value means "no
// parent" (a root span). Refs are plain values, safe to copy across
// goroutines and store in configs.
type SpanRef struct{ ID int64 }

// Valid reports whether the ref names a real span.
func (r SpanRef) Valid() bool { return r.ID != 0 }

// Span is one in-flight span. The zero value is an inert no-op (End
// does nothing), which is what StartSpan returns when tracing is
// disabled — callers never branch on the tracing state themselves.
type Span struct {
	sc   *Scope
	id   int64
	kind SpanKind
}

// Ref returns the span's ref for parenting children (zero for a
// no-op span).
func (s Span) Ref() SpanRef { return SpanRef{ID: s.id} }

// EnableTracing turns span recording on or off (default off).
// Metrics and plain events are unaffected. Safe to call
// concurrently with emission; spans straddling the transition may
// record only one endpoint, which trace consumers count as
// incomplete rather than failing.
func (r *Registry) EnableTracing(on bool) {
	if r != nil {
		r.tracing.Store(on)
	}
}

// TracingEnabled reports whether spans are being recorded.
func (r *Registry) TracingEnabled() bool { return r != nil && r.tracing.Load() }

// TracingEnabled reports whether spans emitted through this scope
// would be recorded: callers that must pay measurement cost *before*
// a span can exist (retroactive waits need a clock read up front)
// gate on this instead of measuring unconditionally. False for a nil
// scope.
func (s *Scope) TracingEnabled() bool { return s != nil && s.reg.TracingEnabled() }

// StartSpan begins a span of the given kind under parent (zero ref =
// root) and records its begin event. Returns the inert zero Span when
// the scope is nil, the registry has no ring, or tracing is disabled
// — the documented zero-cost path.
func (s *Scope) StartSpan(kind SpanKind, parent SpanRef) Span {
	if s == nil {
		return Span{}
	}
	r := s.reg
	if r.ring == nil || !r.tracing.Load() {
		return Span{}
	}
	id := r.spanIDs.Add(1)
	r.ring.push(Event{
		TimeNs: r.now(), Scope: s.id, Kind: EvSpanBegin,
		A: id<<8 | int64(kind), B: parent.ID,
	})
	return Span{sc: s, id: id, kind: kind}
}

// End records the span's end event. No-op on the zero Span. End at
// most once; a second End would record a duplicate end event.
func (s Span) End() {
	if s.sc == nil {
		return
	}
	r := s.sc.reg
	r.ring.push(Event{
		TimeNs: r.now(), Scope: s.sc.id, Kind: EvSpanEnd,
		A: s.id<<8 | int64(s.kind),
	})
}

// EndedSpan records a completed span that ended now and lasted durNs,
// backdating the begin event. This is the shape lock-wait attribution
// needs: the wait duration is only known at acquisition, and emitting
// a begin event before blocking would put ring traffic on the
// uncontended fast path.
func (s *Scope) EndedSpan(kind SpanKind, parent SpanRef, durNs int64) {
	if s == nil {
		return
	}
	r := s.reg
	if r.ring == nil || !r.tracing.Load() {
		return
	}
	if durNs < 0 {
		durNs = 0
	}
	id := r.spanIDs.Add(1)
	end := r.now()
	a := id<<8 | int64(kind)
	r.ring.push(Event{TimeNs: end - durNs, Scope: s.id, Kind: EvSpanBegin, A: a, B: parent.ID})
	r.ring.push(Event{TimeNs: end, Scope: s.id, Kind: EvSpanEnd, A: a})
}

// SpanEventID extracts the span ID from a span event's A payload.
func SpanEventID(a int64) int64 { return a >> 8 }

// SpanEventKind extracts the span kind from a span event's A payload.
func SpanEventKind(a int64) SpanKind { return SpanKind(a & 0xff) }
