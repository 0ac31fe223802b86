package obs

// Causal span tracing: begin/end pairs recorded into the registry's
// lock-free event ring, with parent links so a drained trace
// reconstructs the tree of what happened inside a run — iteration →
// invoke → fault → kernel.mprotect → vma_lock_wait. Spans are
// allocation-free (a Span is a four-word value, events are the
// fixed-size ring slots) and follow the ring's drop-don't-block
// discipline. The whole layer is off by default: StartSpan costs a
// nil check plus one atomic load when tracing is disabled, so
// instrumented hot paths pay nothing measurable until someone calls
// Registry.EnableTracing(true).
//
// The ring holds a timeline — the first events that fit; the rest are
// counted as dropped. Span *time* does not depend on the ring: a span
// that ends adds its duration to two monotone counters of its scope,
// inclusive ns under its own kind and child ns under its parent's
// kind, so "exclusive time per kind" is a subtraction of two counters
// (Attribute, trace.go) that is exact however long the run was.
//
// Encoding: a span occupies two events, SpanBegin and SpanEnd.
// Both carry A = spanID<<8 | kind (IDs are registry-unique, kinds fit
// in a byte); the begin event's B is the parent span's ID (0 = root).
// Lock waits, which are only known retroactively, use EndedSpan to
// record a completed pair whose begin timestamp is backdated by the
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

// SpanRef names a span for parent linkage: Word is the span's event
// payload, spanID<<8 | kind, so a ref stays one word (vmm.Mapping
// holds one in an atomic) and a child can charge its time to its
// parent's kind without looking the parent up. The zero value means
// "no parent" (a root span). Refs are plain values, safe to copy
// across goroutines and store in configs.
type SpanRef struct{ Word int64 }

// Valid reports whether the ref names a real span.
func (r SpanRef) Valid() bool { return r.Word != 0 }

// Span is one in-flight span. The zero value is an inert no-op (End
// does nothing), which is what StartSpan returns when tracing is
// disabled — callers never branch on the tracing state themselves.
type Span struct {
	sc     *Scope
	ref    SpanRef
	parent SpanKind // 0 for a root span
	start  int64
}

// Ref returns the span's ref for parenting children (zero for a
// no-op span).
func (s Span) Ref() SpanRef { return s.ref }

// EnableTracing turns span recording on or off (default off).
// Metrics are unaffected. Safe to call concurrently with recording;
// a span open across the transition to off still ends normally, one
// opened before the transition to on was never a span.
func (r *Registry) EnableTracing(on bool) {
	if r != nil {
		r.tracing.Store(on)
	}
}

// TracingEnabled reports whether spans are being recorded.
func (r *Registry) TracingEnabled() bool { return r != nil && r.tracing.Load() }

// TracingEnabled reports whether spans started through this scope
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
	ref := SpanRef{Word: r.spanIDs.Add(1)<<8 | int64(kind)}
	start := r.now()
	r.ring.push(Event{TimeNs: start, Scope: s.id, A: ref.Word, B: SpanEventID(parent.Word)})
	return Span{sc: s, ref: ref, parent: SpanEventKind(parent.Word), start: start}
}

// End records the span's end event and adds its duration to the
// scope's span-time counters. No-op on the zero Span. End at most
// once; a second End would count the span twice.
func (s Span) End() {
	if s.sc == nil {
		return
	}
	end := s.sc.reg.now()
	s.sc.reg.ring.push(Event{TimeNs: end, Scope: s.sc.id, End: true, A: s.ref.Word})
	s.sc.addSpanTime(SpanEventKind(s.ref.Word), s.parent, end-s.start)
}

// EndedSpan records a completed span that ended now and lasted durNs,
// backdating the begin event. This is the shape lock-wait attribution
// needs: the wait duration is only known at acquisition, and recording
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
	end := r.now()
	a := r.spanIDs.Add(1)<<8 | int64(kind)
	r.ring.push(Event{TimeNs: end - durNs, Scope: s.id, A: a, B: SpanEventID(parent.Word)})
	r.ring.push(Event{TimeNs: end, Scope: s.id, End: true, A: a})
	s.addSpanTime(kind, SpanEventKind(parent.Word), durNs)
}

// addSpanTime is the one place span time is summed: durNs goes to the
// scope's inclusive-ns counter of the span's kind and, for a parented
// span, to the child-ns counter of the parent's kind. Both live in the
// span's own scope, so for any set of scopes Σ(inclusive − child) over
// the kinds equals the inclusive ns of the set's parentless spans.
func (s *Scope) addSpanTime(kind, parent SpanKind, durNs int64) {
	s.spanNs[kind].Add(durNs)
	if parent != 0 {
		s.childNs[parent].Add(durNs)
	}
}

// Counter-name infixes a snapshot lists a scope's span time under,
// each followed by the span kind's name.
const (
	spanNsInfix      = "/span_ns/"
	spanChildNsInfix = "/span_child_ns/"
)

// SpanEventID extracts the span ID from a span event's A payload.
func SpanEventID(a int64) int64 { return a >> 8 }

// SpanEventKind extracts the span kind from a span event's A payload.
func SpanEventKind(a int64) SpanKind { return SpanKind(a & 0xff) }
