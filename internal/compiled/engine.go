package compiled

import (
	"fmt"
	"slices"
	"time"

	"leapsandbounds/internal/core"
	"leapsandbounds/internal/fanout"
	"leapsandbounds/internal/flatten"
	"leapsandbounds/internal/isa"
	"leapsandbounds/internal/mem"
	"leapsandbounds/internal/modcache"
	"leapsandbounds/internal/prof"
	"leapsandbounds/internal/rir"
	"leapsandbounds/internal/validate"
	"leapsandbounds/internal/wasm"
)

// A break of the engine contract is a build error here, in the package
// that caused it.
var (
	_ core.Engine         = (*Engine)(nil)
	_ core.CompiledModule = (*Module)(nil)
	_ core.Instance       = (*Instance)(nil)
)

// Engine is a closure-compiling AOT engine. Engines are immutable
// configuration (name + optimization flag) with no lifecycle, which
// is what makes their compiled modules safely shareable through the
// process-wide module cache.
type Engine struct {
	name     string
	optimize bool
	codegen  core.Codegen
	cache    core.ModuleCache
}

// NewWAVM returns the WAVM analog: ahead-of-time compilation with
// the optimizer enabled (the closure-level stand-in for LLVM's
// optimizing backend). Bounds-check elision and the register-IR
// tier are on by default, as their analogs are in the real engine's
// LLVM pipeline; SetCodegen turns them off for ablations.
func NewWAVM() *Engine {
	return &Engine{
		name:     "wavm",
		optimize: true,
		codegen:  core.Codegen{BoundsElision: true, RegisterIR: true},
		cache:    modcache.Shared(),
	}
}

// NewWasmtime returns the Wasmtime analog: single-pass compilation
// with no optimization passes (the Cranelift-baseline stand-in).
func NewWasmtime() *Engine {
	return &Engine{
		name:     "wasmtime",
		optimize: false,
		cache:    modcache.Shared(),
	}
}

// SetCache implements core.Engine: it redirects the engine's compile
// path to c, or detaches it from caching when c is nil. Call before
// the first Compile.
func (e *Engine) SetCache(c core.ModuleCache) { e.cache = c }

// SetCodegen implements core.Engine. Call before the first Compile;
// the knobs fold into the module-cache key, so modules compiled under
// different codegen never alias.
func (e *Engine) SetCodegen(cg core.Codegen) { e.codegen = cg }

// Codegen implements core.Engine.
func (e *Engine) Codegen() core.Codegen { return e.codegen }

// elision reports whether the elision pass runs: it rewrites the
// optimizer's canonical IR shapes, so the single-pass engine (which
// models a baseline with no mid-end) never elides.
func (e *Engine) elision() bool { return e.optimize && e.codegen.BoundsElision }

// registerIR reports whether the register-IR tier runs. Unlike
// elision it is not gated on the constructor's optimize flag: the
// stack-discipline optimizer is a prerequisite of lowering (deleting
// push/pop traffic is what frees the slots to renumber), so turning
// the tier on pulls the optimizer in with it. That is what lets the
// tiered engine keep its single-pass top tier and still recompile to
// register IR.
func (e *Engine) registerIR() bool { return e.codegen.RegisterIR }

// cacheOpts fingerprints the engine's codegen-affecting options for
// the cache key. The codegen half goes through Codegen.CacheKey so
// every knob — present and future — is hashed by one canonical
// encoding; only the engine-constructor optimize flag is appended
// separately, since it is not a Codegen field. Knobs that cannot take
// effect (elision under the single-pass engine) are canonicalized to
// false so equivalent artifacts share a cache entry.
func (e *Engine) cacheOpts() string {
	effective := core.Codegen{
		BoundsElision: e.elision(),
		RegisterIR:    e.registerIR(),
	}
	opt := 0
	if e.optimize {
		opt = 1
	}
	return fmt.Sprintf("optimize=%d %s", opt, effective.CacheKey())
}

// CachedModule returns the already-compiled artifact for m from the
// engine's cache, without compiling. The tiered engine uses it to
// adopt a warm optimized tier at Compile time instead of scheduling a
// background recompile.
func (e *Engine) CachedModule(m *wasm.Module) (*Module, bool) {
	if e.cache == nil {
		return nil, false
	}
	cm, ok := e.cache.Peek(m, e.name, e.cacheOpts())
	if !ok {
		return nil, false
	}
	tm, ok := cm.(*Module)
	return tm, ok
}

// Name implements core.Engine.
func (e *Engine) Name() string { return e.name }

// cfunc is one compiled function.
type cfunc struct {
	name      string
	typ       wasm.FuncType
	numParams int
	numLocals int
	frameSize int // locals + operand slots
	code      []cop
	classes   []isa.OpClass
	classes2  []isa.OpClass // second half's class of a fused pair, or noClass
	memAcc    []bool
	// elided marks memory accesses whose bounds check the elision
	// pass removed; index is the function-space index. Both feed the
	// sampling profiler's per-op publication.
	elided []bool
	index  uint32
	// preIR is the pre-elision IR retained for the disk artifact tier
	// (artifact.go): the last all-plain-data pipeline stage, from which
	// backHalf → emit reproduce this function exactly.
	preIR []rir.Inst
}

// Module is the compiled form; exported so the tiered engine can
// instantiate its optimized tier directly.
type Module struct {
	engine *Engine
	wasm   *wasm.Module
	funcs  []*cfunc // module-defined functions, in code order
	// imported is wasm.NumImportedFuncs(), counted once: every guest
	// call splits the function space on it.
	imported uint32
}

// Compile implements core.Engine.
func (e *Engine) Compile(m *wasm.Module) (core.CompiledModule, error) {
	return e.CompileModule(m)
}

// CompileModule is Compile with a concrete result type. It routes
// through the engine's module cache: the full validate → flatten →
// optimize → emit pipeline runs only on a cache miss, and concurrent
// misses on the same module deduplicate to one compile.
func (e *Engine) CompileModule(m *wasm.Module) (*Module, error) {
	if e.cache == nil {
		return e.compileModule(m)
	}
	// The cache resolves memory → disk → compile; the engine itself is
	// the codec that round-trips its artifacts through the disk tier.
	cm, _, err := e.cache.GetOrCompileArtifact(m, e.name, e.cacheOpts(), e,
		func() (core.CompiledModule, error) { return e.compileModule(m) })
	if err != nil {
		return nil, err
	}
	return cm.(*Module), nil
}

// compileModule is the uncached compile pipeline: validate, then per
// function
//
//	flatten → rir.Build → rir.Optimize → rir.Compact
//	        → rir.Lower (register tier)
//	        → elide (bounds-check elision)
//	        → rir.FuseMem (jump threading, pair superinstructions) → emit
//
// Functions compile independently — they share only the read-only
// *wasm.Module and the atomic rir/bce counters — so the chain runs on
// fanout's workers. validate.Module returns at once for a module that
// was validated when it was decoded or built.
func (e *Engine) compileModule(m *wasm.Module) (*Module, error) {
	if err := validate.Module(m); err != nil {
		return nil, err
	}
	imported := uint32(m.NumImportedFuncs())
	funcs, i, err := fanout.Map(len(m.Code), func(i int) (*cfunc, error) {
		return e.compileFunc(m, imported, i)
	})
	if err != nil {
		return nil, fmt.Errorf("compiled: function %d: %w", i, err)
	}
	return &Module{engine: e, wasm: m, funcs: funcs, imported: imported}, nil
}

// compileFunc compiles m.Code[i], function imported+i of the function
// space: lowerFunc, then emit.
func (e *Engine) compileFunc(m *wasm.Module, imported uint32, i int) (*cfunc, error) {
	cf, ir, err := e.lowerFunc(m, imported, i)
	if err != nil {
		return nil, err
	}
	if err := cf.emit(ir); err != nil {
		return nil, err
	}
	return cf, nil
}

// lowerFunc runs the chain for m.Code[i] up to the stream emit
// receives. The front half ends at the last all-plain-data stage, which
// the cfunc retains as preIR; backHalf does the rest.
//
// Lower must precede elide — the elision passes capture raw register
// indices inside CheckPlan closures and folded addresses — and FuseMem
// runs last so it can fuse the unchecked accesses elision produced.
// When the register tier is on the frame shrinks from locals+maxStack
// to locals+registers (plus the same scratch pad flatten reserves
// above MaxStack).
func (e *Engine) lowerFunc(m *wasm.Module, imported uint32, i int) (*cfunc, []rir.Inst, error) {
	start := time.Now()
	index := imported + uint32(i)
	ff, err := flatten.Flatten(m, index, &m.Code[i])
	if err != nil {
		return nil, nil, err
	}
	ir, err := rir.Build(ff)
	if err != nil {
		return nil, nil, err
	}
	opsIn := len(ir)
	lowering := e.registerIR()
	if e.optimize || lowering {
		ir = rir.Optimize(ir, ff.NumLocals)
	}
	ir = rir.Compact(ir)
	frameSize := ff.NumLocals + ff.MaxStack
	regs := 0
	if lowering {
		ir, regs = rir.Lower(ir, ff.NumLocals)
		// Mirror flatten's MaxStack = maxH+8 scratch margin.
		frameSize = ff.NumLocals + regs + 8
	}
	cf := &cfunc{
		name:      ff.Name,
		typ:       ff.Type,
		numParams: ff.NumParams,
		numLocals: ff.NumLocals,
		frameSize: frameSize,
		index:     index,
		preIR:     ir,
	}
	ir = e.backHalf(cf)
	if lowering {
		rir.RecordLowering(opsIn, len(ir), regs, time.Since(start).Nanoseconds())
	}
	return cf, ir, nil
}

// EmittedIR returns what the dump tools print side by side for
// m.Code[i]: the stack-shaped IR rir.Build makes of the body, the
// register IR exactly as emit receives it under e's codegen (optimized,
// lowered, elided, jumps threaded, pairs fused), and the local count
// that splits locals from registers in both.
func (e *Engine) EmittedIR(m *wasm.Module, i int) (built, emitted []rir.Inst, numLocals int, err error) {
	imported := uint32(m.NumImportedFuncs())
	ff, err := flatten.Flatten(m, imported+uint32(i), &m.Code[i])
	if err != nil {
		return nil, nil, 0, err
	}
	if built, err = rir.Build(ff); err != nil {
		return nil, nil, 0, err
	}
	cf, emitted, err := e.lowerFunc(m, imported, i)
	if err != nil {
		return nil, nil, 0, err
	}
	return built, emitted, cf.numLocals, nil
}

// backHalf runs the passes whose output is not plain data, elide →
// FuseMem, and returns the IR to emit; a fresh compile and an artifact
// decode share it. cf.preIR stays as it was, so the module can still be
// encoded: elide does not write the slice it is handed (it returns that
// slice when it finds nothing to elide, a new one otherwise), and
// FuseMem, which rewrites in place, gets a copy whenever its input would
// still be preIR. The copy is shallow: the passes replace inner slices
// (branch tables) rather than write through them.
func (e *Engine) backHalf(cf *cfunc) []rir.Inst {
	ir := cf.preIR
	if e.elision() {
		ir = elide(ir, cf.numLocals)
	}
	if e.registerIR() {
		if len(ir) > 0 && &ir[0] == &cf.preIR[0] {
			ir = slices.Clone(ir)
		}
		ir, _ = rir.FuseMem(ir)
	}
	return ir
}

// Instantiate implements core.CompiledModule.
func (cm *Module) Instantiate(cfg core.Config, imports core.Imports) (core.Instance, error) {
	return cm.instantiate(cfg, imports, nil)
}

// InstantiateSnapshot implements core.CompiledModule. Compiled code is
// shared with every other instance of this module — forks never
// recompile.
func (cm *Module) InstantiateSnapshot(cfg core.Config, imports core.Imports, snap *core.StateSnapshot) (core.Instance, error) {
	return cm.instantiate(cfg, imports, snap)
}

// instantiate creates one isolate, fresh (snap nil: the start function
// runs) or from a template's frozen state (the start function's
// effects are in the snapshot).
func (cm *Module) instantiate(cfg core.Config, imports core.Imports, snap *core.StateSnapshot) (*Instance, error) {
	if cfg.ProfLabel == "" {
		cfg.ProfLabel = cm.engine.name
	}
	base, err := core.NewInstanceBase(cm.wasm, cfg, imports, snap)
	if err != nil {
		return nil, err
	}
	_, ckSoft := base.CheckClass()
	inst := &Instance{
		base:   base,
		mod:    cm,
		stack:  make([]uint64, 4096),
		count:  cfg.CountCycles,
		prof:   base.ProfCell,
		ckSoft: ckSoft,
	}
	if snap == nil && cm.wasm.Start != nil {
		if _, err := inst.invokeIndex(*cm.wasm.Start, nil); err != nil {
			_ = base.Close()
			return nil, fmt.Errorf("compiled: start function: %w", err)
		}
	}
	return inst, nil
}

// Instance is one compiled-engine isolate.
type Instance struct {
	base  *core.InstanceBase
	mod   *Module
	stack []uint64
	count bool
	// prof/ckSoft are hoisted from the base at instantiation so the
	// run loop selects the sampled variant with one nil check per
	// call frame (nil prof keeps the seed-identical loops).
	prof   *prof.Cell
	ckSoft bool
	// dispatches counts closures executed under Config.CountCycles (the
	// plain loop stays free of it): the unit the closure engine's run
	// time is made of, which superinstruction fusion exists to shrink. A
	// fused pair is one dispatch, whatever it charges the cycle model.
	// BenchmarkSteadyKernels reports it.
	dispatches int64
}

// Memory implements core.Instance.
func (inst *Instance) Memory() *mem.Memory { return inst.base.Mem }

// Counts implements core.Instance.
func (inst *Instance) Counts() *isa.Counts { return inst.base.Counts() }

// Close implements core.Instance.
func (inst *Instance) Close() error { return inst.base.Close() }

// Snapshot implements core.Instance.
func (inst *Instance) Snapshot() (*core.StateSnapshot, error) { return inst.base.Snapshot() }

// Invoke implements core.Instance.
func (inst *Instance) Invoke(name string, args ...uint64) ([]uint64, error) {
	idx, ok := inst.mod.wasm.ExportedFunc(name)
	if !ok {
		return nil, fmt.Errorf("compiled: no exported function %q", name)
	}
	sp := inst.base.BeginInvoke()
	res, err := inst.invokeIndex(idx, args)
	inst.base.EndInvoke(sp, err)
	return res, err
}

func (inst *Instance) invokeIndex(idx uint32, args []uint64) (res []uint64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = core.InvokeErr(r)
		}
	}()
	imported := inst.mod.imported
	if idx < imported {
		v, err := inst.base.CallHost(int(idx), args)
		if err != nil {
			return nil, err
		}
		if len(inst.base.HostFuncs[idx].Type.Results) > 0 {
			return []uint64{v}, nil
		}
		return nil, nil
	}
	cf := inst.mod.funcs[idx-imported]
	if len(args) != cf.numParams {
		return nil, fmt.Errorf("compiled: %d args for function with %d params", len(args), cf.numParams)
	}
	inst.ensureStack(0, cf)
	copy(inst.stack, args)
	for i := cf.numParams; i < cf.numLocals; i++ {
		inst.stack[i] = 0
	}
	inst.run(cf, 0)
	if len(cf.typ.Results) > 0 {
		return []uint64{inst.stack[0]}, nil
	}
	return nil, nil
}

func (inst *Instance) ensureStack(base int, cf *cfunc) {
	need := base + cf.frameSize
	if need > len(inst.stack) {
		ns := make([]uint64, max(need, 2*len(inst.stack)))
		copy(ns, inst.stack)
		inst.stack = ns
	}
}

// run executes a compiled function with its frame at base.
func (inst *Instance) run(cf *cfunc, base int) {
	if inst.prof != nil || inst.count {
		inst.runInstrumented(cf, base)
		return
	}
	code := cf.code
	for pc := 0; pc >= 0; {
		pc = code[pc](inst, base, pc)
	}
}

// runInstrumented is the one instrumented dispatch loop. When the
// instance is sampled, it publishes (function, opcode class, check
// flags) into the instance's cell with one atomic store before every
// closure; when cycle accounting is on, it charges the closure's
// classes (both halves of a fused pair, plus the strategy's check on
// accesses) and counts the dispatch.
// `-cycles -profile` gets both.
func (inst *Instance) runInstrumented(cf *cfunc, base int) {
	code := cf.code
	classes, classes2 := cf.classes, cf.classes2
	memAcc := cf.memAcc
	elided := cf.elided
	fn := cf.index
	cell := inst.prof
	ckSoft := inst.ckSoft
	counting := inst.count
	var counts *isa.Counts
	var ck isa.OpClass
	var ckOn bool
	if counting {
		counts = &inst.base.CycleCounts
		ck, ckOn = inst.base.CheckClass()
	}
	for pc := 0; pc >= 0; {
		if cell != nil {
			var fl uint8
			if memAcc[pc] {
				switch {
				case elided[pc]:
					fl = prof.FlagElided
				case ckSoft:
					fl = prof.FlagChecked
				}
			}
			cell.Set(fn, classes[pc], fl)
		}
		if counting {
			inst.dispatches++
			counts[classes[pc]]++
			if c := classes2[pc]; c != noClass {
				counts[c]++
			}
			if ckOn && memAcc[pc] {
				counts[ck]++
			}
		}
		pc = code[pc](inst, base, pc)
	}
}

// callFunc dispatches a wasm-level call: arguments are already in
// place at calleeBase (the callee's locals window); results land at
// calleeBase.
func (inst *Instance) callFunc(fi uint32, calleeBase int) {
	imported := inst.mod.imported
	if fi < imported {
		inst.base.CallImport(fi, inst.stack, calleeBase)
		return
	}
	cf := inst.mod.funcs[fi-imported]
	inst.base.EnterCall()
	inst.ensureStack(calleeBase, cf)
	for i := calleeBase + cf.numParams; i < calleeBase+cf.numLocals; i++ {
		inst.stack[i] = 0
	}
	inst.run(cf, calleeBase)
	inst.base.LeaveCall()
}
