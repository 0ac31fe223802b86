// Package core defines the engine-independent runtime plumbing: the
// Engine/CompiledModule/Instance interfaces every runtime analog
// implements, execution configuration (bounds-checking strategy,
// hardware profile, cycle accounting), host-function imports, and
// shared instantiation logic (import resolution, global/table/data
// initialization).
//
// This is the layer where the paper's contribution plugs in: a
// Config selects one of the five bounds-checking strategies and one
// of the three ISA profiles, and every engine honours both.
package core

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"

	"leapsandbounds/internal/faultinject"
	"leapsandbounds/internal/isa"
	"leapsandbounds/internal/mem"
	"leapsandbounds/internal/obs"
	"leapsandbounds/internal/prof"
	"leapsandbounds/internal/trap"
	"leapsandbounds/internal/vmm"
	"leapsandbounds/internal/wasm"
)

// Config selects the execution environment for compiled modules.
type Config struct {
	// Strategy is the bounds-checking mechanism (paper §3.1).
	Strategy mem.Strategy
	// Profile is the simulated hardware profile; required.
	Profile *isa.Profile
	// AS is the simulated process address space. All instances
	// sharing a process must share one AS; if nil a private AS is
	// created from the profile's VM config at instantiation.
	AS *vmm.AddressSpace
	// Pool recycles uffd arenas; required when Strategy == mem.Uffd.
	Pool *mem.ArenaPool
	// UffdNoPool disables arena recycling for the Uffd strategy
	// (ablation: userfaultfd faults without userspace arena
	// management).
	UffdNoPool bool
	// UffdPoll selects userfaultfd's poll-based delivery (handler
	// thread) instead of SIGBUS delivery (ablation, paper §2.3.1
	// footnote 2).
	UffdPoll bool
	// EagerCommit makes the Mprotect strategy commit at grow time
	// with one mprotect call instead of lazily per fault (ablation,
	// see mem.Config.EagerCommit).
	EagerCommit bool
	// CountCycles enables the per-ISA cycle accounting model.
	CountCycles bool
	// Obs is the scope instance metrics land under (invocations,
	// traps, cycle-class totals). If nil, a child scope "engine" of
	// the address space's scope is used, so every engine reports
	// uniformly without explicit wiring.
	Obs *obs.Scope
	// SharedMem attaches the instance to an existing wasm-threads-style
	// shared linear memory (built with NewSharedMemory) instead of
	// allocating a private one. All instances of a thread group pass
	// the same *mem.Memory; the instance does not close it (the creator
	// owns its lifetime), and data segments are (re)initialized by each
	// instantiation, so attach all workers before mutating the memory.
	SharedMem *mem.Memory
	// Span is the causal parent for the instance's spans: the
	// instantiate span opens under it, and kernel work between
	// invokes (memory teardown, recycling) attributes to it. The
	// harness points it at the current iteration's span; zero means
	// root / untraced.
	Span obs.SpanRef
	// Prof, when non-nil and started, samples the instance: the
	// engine publishes its current (function, opcode class, check
	// flags) into a per-instance cell the profiler's goroutine reads.
	// Instances created while the profiler is stopped (or with Prof
	// nil) take the uninstrumented hot path.
	Prof *prof.Profiler
	// ProfLabel names the executing engine/tier in profile rows.
	// Engines fill it in when the caller leaves it empty, so the
	// tiered engine's baseline and optimizing tiers attribute
	// separately.
	ProfLabel string
}

// defaultMaxPages caps memories that declare no maximum: 2048 wasm
// pages = 128 MiB, ample for every workload in this repository.
const defaultMaxPages = 2048

// callDepth bounds recursion: one more nested wasm-level call traps
// with trap.StackOverflow.
const callDepth = 1000

// withDefaults normalizes a config.
func (c Config) withDefaults() (Config, error) {
	if c.Profile == nil {
		return c, errors.New("core: Config.Profile is required")
	}
	if c.AS == nil {
		c.AS = vmm.New(c.Profile.VM)
	}
	if c.Strategy == mem.Uffd && c.Pool == nil && !c.UffdNoPool {
		// One pool per simulated process, not per instantiation: a
		// fresh pool here would defeat arena recycling for every
		// caller that doesn't wire Pool explicitly (the default
		// serverless path), turning each instance teardown into a
		// munmap and each start into an mmap — exactly the mmap-lock
		// traffic the uffd strategy exists to avoid.
		c.Pool = mem.SharedPool(c.AS)
	}
	if c.Obs == nil {
		c.Obs = c.AS.Obs().Child("engine")
	}
	return c, nil
}

// Codegen carries per-engine code-generation knobs. Unlike Config it
// is compile-time state: it shapes the emitted artifact, so engines
// fold it into their module-cache options string — artifacts built
// under different knobs must never alias in the cache.
type Codegen struct {
	// BoundsElision enables the bounds-check elision pass in engines
	// that support it (the optimizing compiled engine): per-access
	// watermark checks are coalesced into per-region range checks and
	// hoisted out of affine loops, with a checked fallback copy that
	// preserves exact trap sites and clamp redirect semantics. The
	// emitted code stays strategy-agnostic — elision is a codegen
	// property, the strategy remains instantiation-time.
	BoundsElision bool

	// RegisterIR enables the register-IR recompile tier in engines
	// that support it: after the stack-discipline optimizer deletes
	// push/pop traffic, surviving operand slots are renumbered into a
	// dense virtual-register file and adjacent dependent pairs
	// (compare+branch, load+op, op+store) fuse into superinstructions
	// dispatched once. Like BoundsElision it changes only dispatch
	// count and frame size, never observable behavior.
	RegisterIR bool
}

// CacheKey renders the codegen knobs as a canonical options string
// for module-cache keys. It iterates every field reflectively so a
// knob added to Codegen can never be silently dropped from the key —
// artifacts built under different knobs must never alias. All engines
// must build their cache-options strings through this one function.
func (cg Codegen) CacheKey() string {
	var sb strings.Builder
	v := reflect.ValueOf(cg)
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%s=%v", t.Field(i).Name, v.Field(i).Interface())
	}
	return sb.String()
}

// ModuleCache is a process-wide cache of compiled modules, keyed by
// module content hash, engine name and codegen-affecting options
// (implemented by internal/modcache). Engines route Compile through
// one so that repeated compiles of the same module become lookups;
// the boolean reports whether the artifact came from the cache. A
// sound cache key deliberately excludes instantiation-time
// configuration (bounds-checking strategy, hardware profile, address
// space): compiled modules are instantiation-independent — the
// invariant TestCompiledModuleInstantiationIndependent enforces.
type ModuleCache interface {
	// GetOrCompile returns the cached artifact for (m, engine, opts),
	// or runs compile exactly once (concurrent requests for the same
	// key are deduplicated) and caches its result.
	GetOrCompile(m *wasm.Module, engine, opts string, compile func() (CompiledModule, error)) (CompiledModule, bool, error)
	// GetOrCompileArtifact is GetOrCompile through an optional disk tier
	// behind the in-memory one: memory → disk → compile, the whole miss
	// path deduplicated by the same singleflight. codec round-trips the
	// engine's artifacts through bytes; nil skips the disk tier for that
	// call.
	GetOrCompileArtifact(m *wasm.Module, engine, opts string, codec ArtifactCodec,
		compile func() (CompiledModule, error)) (CompiledModule, Provenance, error)
	// Peek returns the cached artifact without compiling.
	Peek(m *wasm.Module, engine, opts string) (CompiledModule, bool)
}

// Engine compiles modules for one runtime design point. The three
// configuration methods are not synchronized against Compile: call
// them before the engine's first Compile.
type Engine interface {
	// Name is the short identifier used in figures (e.g. "wavm").
	Name() string
	// Compile prepares a validated module for instantiation. The
	// returned module is immutable and safe for concurrent
	// instantiation from many goroutines.
	Compile(m *wasm.Module) (CompiledModule, error)
	// SetCache redirects the compile path to a different ModuleCache, or
	// detaches it from caching with a nil cache (benchmarks that measure
	// compile cost need every Compile to do the work).
	SetCache(ModuleCache)
	// Codegen returns the engine's code-generation knobs, so a caller
	// that wants to flip one (the harness's ablation switches) can read,
	// modify and SetCodegen the result instead of clobbering the other
	// defaults. An engine with no code generator reports the zero value
	// and ignores SetCodegen.
	Codegen() Codegen
	SetCodegen(Codegen)
}

// CompiledModule is a compiled, instantiable module.
type CompiledModule interface {
	// Instantiate creates one isolate: its own memory, globals and
	// table. Instances are not safe for concurrent use.
	Instantiate(cfg Config, imports Imports) (Instance, error)
	// InstantiateSnapshot creates one isolate that starts from snap —
	// memory forked copy-on-write, globals and table restored by value —
	// instead of running segment initialization and the start function,
	// whose effects are in the image. A nil snap is Instantiate.
	InstantiateSnapshot(cfg Config, imports Imports, snap *StateSnapshot) (Instance, error)
}

// Instance is one running isolate.
type Instance interface {
	// Invoke calls an exported function. Values are raw 64-bit bits.
	Invoke(name string, args ...uint64) ([]uint64, error)
	// Memory returns the instance memory, or nil if none.
	Memory() *mem.Memory
	// Counts returns accumulated cycle-model counts (nil when
	// accounting is disabled).
	Counts() *isa.Counts
	// Snapshot freezes the instance's state (memory image, globals,
	// table) for InstantiateSnapshot. Snapshots are engine- and
	// tier-independent.
	Snapshot() (*StateSnapshot, error)
	// Close releases instance resources (unmaps or recycles memory).
	Close() error
}

// HostContext is passed to host functions.
type HostContext struct {
	Mem *mem.Memory

	// views/revals count HostMemView acquisitions and post-grow
	// revalidations (cached metric handles; nil in hand-built
	// contexts, which View tolerates).
	views  *obs.Counter
	revals *obs.Counter
}

// HostFunc is a function provided by the embedder.
type HostFunc struct {
	Type wasm.FuncType
	// Fn receives raw argument bits and returns the raw result (used
	// only when Type.Results is non-empty).
	Fn func(hc *HostContext, args []uint64) (uint64, error)
}

// Imports maps module name → field name → host function.
type Imports map[string]map[string]HostFunc

// resolve returns the host function for an import, or an error.
func (im Imports) resolve(module, name string, want wasm.FuncType) (HostFunc, error) {
	fields, ok := im[module]
	if !ok {
		return HostFunc{}, fmt.Errorf("core: unknown import module %q", module)
	}
	hf, ok := fields[name]
	if !ok {
		return HostFunc{}, fmt.Errorf("core: unknown import %q.%q", module, name)
	}
	if !hf.Type.Equal(want) {
		return HostFunc{}, fmt.Errorf("core: import %q.%q has type %s, module wants %s",
			module, name, hf.Type, want)
	}
	return hf, nil
}

// InstanceBase holds the engine-independent runtime state of one
// instance and implements the shared parts of instantiation.
type InstanceBase struct {
	Module  *wasm.Module
	Cfg     Config
	Mem     *mem.Memory
	Globals []uint64
	// Table maps table slots to function-space indices; Filled marks
	// initialized slots.
	Table  []uint32
	Filled []bool
	// HostFuncs are the resolved imported functions, in import order.
	HostFuncs []HostFunc
	// HostCtx is passed to host calls.
	HostCtx HostContext
	// CycleCounts accumulates per-class operation counts when
	// Cfg.CountCycles is set.
	CycleCounts isa.Counts
	// Depth is the current call depth (engines maintain it).
	Depth int

	// obsInvokes/obsTraps are cached metric handles so the per-call
	// cost is one atomic add; obsFlushed guards the one-time cycle
	// flush in Close. obsInjected counts the subset of traps caused
	// by injected faults that exhausted the retry budget.
	// obsHostcalls counts guest→host boundary crossings.
	obsInvokes   *obs.Counter
	obsTraps     *obs.Counter
	obsInjected  *obs.Counter
	obsHostcalls *obs.Counter
	obsFlushed   bool

	// invokeRef is the live invoke span (set by BeginInvoke, cleared
	// by EndInvoke) so hostcall spans nest under the call they
	// interrupt. Zero when tracing is off.
	invokeRef obs.SpanRef

	// ProfCell is the sampling profiler's publication slot, nil
	// unless Cfg.Prof was started before instantiation. Engines
	// hoist it into their dispatch loops.
	ProfCell *prof.Cell

	// sharedMem marks Mem as attached (Config.SharedMem): the instance
	// neither closes it nor repoints its span parent per invoke —
	// sibling workers invoke concurrently, and a per-invoke repoint
	// would race; the run driver sets one parent for the whole scenario.
	sharedMem bool
}

// funcNames builds the function-index → name table the profiler
// resolves samples against: the module's name section where present,
// "fnN" placeholders elsewhere (imports included, so indices line up
// with the function space the engines publish).
func funcNames(m *wasm.Module) []string {
	n := m.NumImportedFuncs() + len(m.Code)
	names := make([]string, n)
	for i := range names {
		if nm, ok := m.FuncNames[uint32(i)]; ok && nm != "" {
			names[i] = nm
		}
	}
	return names
}

// NewInstanceBase performs the engine-independent instantiation steps
// in specification order: import resolution, memory allocation, then
// either global, table, element and data-segment initialization (snap
// nil: a fresh instance) or the restoration of snap's globals and
// table by value over a copy-on-write fork of its memory image (a
// fork: the image already holds the effects of the segments, the
// start function and whatever the donor's warm-up did on top, so
// engines skip the start function too). Imports are resolved either
// way — host functions are per-instance.
func NewInstanceBase(m *wasm.Module, cfg Config, imports Imports, snap *StateSnapshot) (*InstanceBase, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	b := &InstanceBase{
		Module:       m,
		Cfg:          cfg,
		obsInvokes:   cfg.Obs.Counter("invokes"),
		obsTraps:     cfg.Obs.Counter("traps"),
		obsInjected:  cfg.Obs.Counter("injected_traps"),
		obsHostcalls: cfg.Obs.Counter("hostcalls"),
	}
	kind := obs.SpanInstantiate
	if snap != nil {
		kind = obs.SpanFork
	}
	sp := cfg.Obs.StartSpan(kind, cfg.Span)
	defer sp.End()

	for _, im := range m.Imports {
		switch im.Kind {
		case wasm.ExternFunc:
			ft := m.Types[im.Func]
			hf, err := imports.resolve(im.Module, im.Name, ft)
			if err != nil {
				return nil, err
			}
			b.HostFuncs = append(b.HostFuncs, hf)
		case wasm.ExternMemory, wasm.ExternTable, wasm.ExternGlobal:
			return nil, fmt.Errorf("core: %v imports are not supported (import %q.%q)",
				im.Kind, im.Module, im.Name)
		}
	}

	lim, hasMem := m.MemoryLimits()
	var image *mem.Snapshot
	if snap != nil {
		if cfg.SharedMem != nil {
			return nil, errors.New("core: a snapshot cannot be restored onto a shared memory")
		}
		if hasMem != (snap.Mem != nil) {
			return nil, errors.New("core: snapshot memory does not match module declaration")
		}
		image = snap.Mem
	}
	switch {
	case cfg.SharedMem != nil:
		if !hasMem {
			return nil, errors.New("core: Config.SharedMem set but module declares no memory")
		}
		if !cfg.SharedMem.Shared() {
			return nil, errors.New("core: Config.SharedMem must be built with mem.Config.Shared")
		}
		if cfg.SharedMem.Strategy() != cfg.Strategy {
			return nil, fmt.Errorf("core: shared memory strategy %v does not match config strategy %v",
				cfg.SharedMem.Strategy(), cfg.Strategy)
		}
		if uint64(lim.Min)*wasm.PageSize > cfg.SharedMem.SizeBytes() {
			return nil, fmt.Errorf("core: shared memory smaller than module minimum (%d pages < %d)",
				cfg.SharedMem.SizePages(), lim.Min)
		}
		b.Mem = cfg.SharedMem
		b.sharedMem = true
	case hasMem:
		memParent := cfg.Span
		if sp.Ref().Valid() {
			memParent = sp.Ref()
		}
		if b.Mem, err = cfg.newMemory(lim, image, false, memParent); err != nil {
			return nil, err
		}
	}
	b.HostCtx = HostContext{
		Mem:    b.Mem,
		views:  cfg.Obs.Counter("hostview_acquires"),
		revals: cfg.Obs.Counter("hostview_revalidations"),
	}
	if snap != nil {
		b.Globals = slices.Clone(snap.Globals)
		b.Table = slices.Clone(snap.Table)
		b.Filled = slices.Clone(snap.Filled)
	} else if err := b.initState(); err != nil {
		_ = b.Close()
		return nil, err
	}
	// Instantiation is done: faults and kernel work from here on
	// belong to whatever context owns the instance, not to the
	// (about-to-end) instantiate span. Shared memories keep whatever
	// parent their creator set — many instances attach to one mapping
	// and must not fight over its attribution.
	if b.Mem != nil && !b.sharedMem {
		b.Mem.SetSpanParent(cfg.Span)
	}
	// The profiler cell is registered last, once nothing can fail: a
	// registered cell is sampled (and holds the name table) until Close
	// unregisters it, and a failed instantiation has no Close.
	if cfg.Prof != nil {
		b.ProfCell = cfg.Prof.Register(cfg.ProfLabel, cfg.Strategy.String(), funcNames(m))
	}
	return b, nil
}

// newMemory allocates a linear memory under c — the one place a
// core.Config becomes a mem.Config. A fork takes its geometry from
// image; a fresh memory (image nil) takes the module's limits, with
// the maximum clamped by defaultMaxPages, raised to the minimum, and
// never zero (mem.Config requires a maximum).
func (c Config) newMemory(lim wasm.Limits, image *mem.Snapshot, shared bool, span obs.SpanRef) (*mem.Memory, error) {
	mc := mem.Config{
		Strategy:    c.Strategy,
		AS:          c.AS,
		Pool:        c.Pool,
		DisablePool: c.UffdNoPool,
		UffdPoll:    c.UffdPoll,
		EagerCommit: c.EagerCommit,
		Shared:      shared,
		Span:        span,
	}
	if image != nil {
		return mem.NewFromSnapshot(mc, image)
	}
	mc.MinPages = lim.Min
	mc.MaxPages = defaultMaxPages
	if lim.HasMax && lim.Max < mc.MaxPages {
		mc.MaxPages = lim.Max
	}
	mc.MaxPages = max(mc.MaxPages, lim.Min, 1)
	return mem.New(mc)
}

// initState initializes a fresh instance's globals, table, element and
// data segments from the module.
func (b *InstanceBase) initState() error {
	m := b.Module
	b.Globals = make([]uint64, len(m.Globals))
	for i, g := range m.Globals {
		v, err := b.evalConst(g.Init)
		if err != nil {
			return fmt.Errorf("core: global %d: %w", i, err)
		}
		b.Globals[i] = v
	}

	if len(m.Tables) > 0 {
		b.Table = make([]uint32, m.Tables[0].Limits.Min)
		b.Filled = make([]bool, len(b.Table))
	}
	for i, e := range m.Elems {
		off, err := b.evalConst(e.Offset)
		if err != nil {
			return fmt.Errorf("core: element segment %d: %w", i, err)
		}
		start := uint32(off)
		if uint64(start)+uint64(len(e.Funcs)) > uint64(len(b.Table)) {
			return fmt.Errorf("core: element segment %d out of table bounds", i)
		}
		for j, fi := range e.Funcs {
			b.Table[start+uint32(j)] = fi
			b.Filled[start+uint32(j)] = true
		}
	}

	for i, ds := range m.Data {
		off, err := b.evalConst(ds.Offset)
		if err != nil {
			return fmt.Errorf("core: data segment %d: %w", i, err)
		}
		if b.Mem == nil {
			return fmt.Errorf("core: data segment %d with no memory", i)
		}
		start := uint64(uint32(off))
		if start+uint64(len(ds.Data)) > b.Mem.SizeBytes() {
			return fmt.Errorf("core: data segment %d out of memory bounds", i)
		}
		if err := b.writeSegment(start, ds.Data); err != nil {
			return fmt.Errorf("core: data segment %d: %w", i, err)
		}
	}
	return nil
}

// writeSegment copies segment bytes, converting traps to errors.
func (b *InstanceBase) writeSegment(start uint64, data []byte) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = trap.Recover(r)
		}
	}()
	b.Mem.WriteAt(start, data)
	return nil
}

func (b *InstanceBase) evalConst(e wasm.ConstExpr) (uint64, error) {
	switch e.Op {
	case wasm.OpI32Const, wasm.OpI64Const, wasm.OpF32Const, wasm.OpF64Const:
		return e.Value, nil
	default:
		return 0, fmt.Errorf("unsupported constant initializer %s", e.Op)
	}
}

// Close releases the base's resources and flushes accumulated cycle
// counts into the instance's obs scope (once). An attached shared
// memory is left open: its creator owns the lifetime.
func (b *InstanceBase) Close() error {
	b.flushCycles()
	b.Cfg.Prof.Unregister(b.ProfCell)
	b.ProfCell = nil
	if b.Mem != nil && !b.sharedMem {
		return b.Mem.Close()
	}
	return nil
}

// BeginInvoke opens the invoke span (under the instance's configured
// parent) and points the memory's kernel-work attribution at it, so
// faults taken during the call nest under the call. Engines bracket
// Invoke with BeginInvoke/EndInvoke; the returned span is inert when
// tracing is off, leaving only the counter cost of obsInvoke.
func (b *InstanceBase) BeginInvoke() obs.Span {
	sp := b.Cfg.Obs.StartSpan(obs.SpanInvoke, b.Cfg.Span)
	if sp.Ref().Valid() {
		b.invokeRef = sp.Ref()
		if b.Mem != nil && !b.sharedMem {
			// A shared memory's span parent is a scenario-wide setting
			// (concurrent workers would race a per-invoke repoint).
			b.Mem.SetSpanParent(sp.Ref())
		}
	}
	return sp
}

// EndInvoke closes what BeginInvoke opened, restores the memory's
// span parent, and records the invocation outcome.
func (b *InstanceBase) EndInvoke(sp obs.Span, err error) {
	if sp.Ref().Valid() {
		b.invokeRef = obs.SpanRef{}
		if b.Mem != nil && !b.sharedMem {
			b.Mem.SetSpanParent(b.Cfg.Span)
		}
	}
	sp.End()
	b.ProfCell.Idle()
	b.obsInvoke(err)
}

// obsInvoke records one completed Invoke call, so invocation and trap
// counts are uniform across compiled, tiered and interpreted
// execution.
func (b *InstanceBase) obsInvoke(err error) {
	b.obsInvokes.Inc()
	if err == nil {
		return
	}
	var t *trap.Trap
	if errors.As(err, &t) {
		b.obsTraps.Inc()
		if t.Kind == trap.Injected {
			b.obsInjected.Inc()
		}
	}
}

// flushCycles publishes CycleCounts as per-class counters under
// cycles/<class>. Deferred to Close because CycleCounts is a plain
// (non-atomic) hot-path accumulator owned by one instance.
func (b *InstanceBase) flushCycles() {
	if b.obsFlushed || !b.Cfg.CountCycles {
		return
	}
	b.obsFlushed = true
	sc := b.Cfg.Obs.Child("cycles")
	for class := isa.OpClass(0); class < isa.NumClasses; class++ {
		if n := b.CycleCounts[class]; n != 0 {
			sc.Counter(class.String()).Add(n)
		}
	}
}

// Memory returns the instance memory (nil if the module has none).
func (b *InstanceBase) Memory() *mem.Memory { return b.Mem }

// Counts returns the accumulated counts, or nil when disabled.
func (b *InstanceBase) Counts() *isa.Counts {
	if !b.Cfg.CountCycles {
		return nil
	}
	return &b.CycleCounts
}

// EnterCall bounds recursion depth; engines call it on every wasm-
// level call and pair it with LeaveCall.
func (b *InstanceBase) EnterCall() {
	b.Depth++
	if b.Depth > callDepth {
		trap.Throw(trap.StackOverflow)
	}
}

// LeaveCall unwinds one call level.
func (b *InstanceBase) LeaveCall() { b.Depth-- }

// CheckClass returns the cycle-model class charged per memory access
// for the instance's strategy (software checks only; the virtual-
// memory strategies are free at access time on real hardware).
func (b *InstanceBase) CheckClass() (isa.OpClass, bool) {
	switch b.Cfg.Strategy {
	case mem.Clamp:
		return isa.ClassCheckClamp, true
	case mem.Trap:
		return isa.ClassCheckTrap, true
	default:
		return 0, false
	}
}

// CallHost invokes host function i with the given raw arguments.
// This is the single guest→host funnel for every engine: the
// boundary crossing is counted (instance scope and address-space
// stats) and, under tracing, spanned under the live invoke so
// attribution separates boundary time from guest execution. The span
// closes by defer because host functions trap by panicking (an OOB
// iovec through Mem.Bytes) and the panic unwinds to the engine's
// Invoke recovery.
func (b *InstanceBase) CallHost(i int, args []uint64) (uint64, error) {
	b.obsHostcalls.Inc()
	if b.Cfg.CountCycles {
		// The boundary crossing itself has a cycle-model price
		// (register save/restore + indirect into the host ABI), so
		// the wasi suite's op histograms attribute hostcall cost
		// instead of folding it into plain calls.
		b.CycleCounts[isa.ClassHostcall]++
	}
	if b.Cfg.AS != nil {
		b.Cfg.AS.CountHostcall()
	}
	parent := b.invokeRef
	if !parent.Valid() {
		parent = b.Cfg.Span
	}
	sp := b.Cfg.Obs.StartSpan(obs.SpanHostcall, parent)
	defer sp.End()
	hf := b.HostFuncs[i]
	return hf.Fn(&b.HostCtx, args)
}

// CallImport is the imported-function half of a wasm-level call, the
// same in every engine: the arguments of import fi are already in
// place at stack[base:], the result (if any) lands at stack[base], and
// a host error unwinds as a trap.
func (b *InstanceBase) CallImport(fi uint32, stack []uint64, base int) {
	hf := &b.HostFuncs[fi]
	v, err := b.CallHost(int(fi), stack[base:base+len(hf.Type.Params)])
	if err != nil {
		trap.ThrowHostErr(err)
	}
	if len(hf.Type.Results) > 0 {
		stack[base] = v
	}
}

// ResolveIndirect is the table half of call_indirect: it returns the
// function-space index in table slot, trapping on a slot that is out
// of bounds, uninitialized, or holds a function whose type is not
// module type typeIdx.
func (b *InstanceBase) ResolveIndirect(slot, typeIdx uint32) uint32 {
	if int(slot) >= len(b.Table) {
		trap.Throw(trap.TableOutOfBounds)
	}
	if !b.Filled[slot] {
		trap.Throw(trap.IndirectCallNull)
	}
	fi := b.Table[slot]
	ft, err := b.Module.FuncTypeAt(fi)
	if err != nil {
		trap.Throwf(trap.HostError, "%v", err)
	}
	if !ft.Equal(b.Module.Types[typeIdx]) {
		trap.Throw(trap.IndirectCallType)
	}
	return fi
}

// InvokeErr converts a recovered engine panic into an Invoke error.
func InvokeErr(r any) error { return trap.Recover(r) }

// instantiateMaxAttempts bounds InstantiateWithRetry.
const instantiateMaxAttempts = 8

// InstantiateWithRetry instantiates cm, retrying with backoff when
// instantiation fails with an injected transient fault (an mmap or
// eager-commit mprotect failure under chaos testing). Permanent
// errors return immediately; a recovery after a transient failure is
// counted against the address space's injector.
func InstantiateWithRetry(cm CompiledModule, cfg Config, imports Imports) (Instance, error) {
	return instantiateWithRetry(cm, cfg, imports, nil)
}

// instantiateWithRetry is the retry loop for fresh instances (snap nil)
// and template forks alike.
func instantiateWithRetry(cm CompiledModule, cfg Config, imports Imports, snap *StateSnapshot) (Instance, error) {
	var lastErr error
	for attempt := 0; attempt < instantiateMaxAttempts; attempt++ {
		if attempt > 0 {
			faultinject.Backoff(attempt)
		}
		inst, err := cm.InstantiateSnapshot(cfg, imports, snap)
		if err == nil {
			if lastErr != nil && cfg.AS != nil {
				if site, ok := faultinject.IsTransient(lastErr); ok {
					cfg.AS.Injector().Recovered(site)
				}
			}
			return inst, nil
		}
		if _, ok := faultinject.IsTransient(err); !ok {
			return nil, err
		}
		lastErr = err
	}
	return nil, fmt.Errorf("core: instantiation failed after %d attempts: %w",
		instantiateMaxAttempts, lastErr)
}
