package compiled

import (
	"fmt"
	"slices"
	"sync"
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

// Engine is an AOT engine that compiles to a register-IR stream its
// run loop switches over. Engines are immutable
// configuration (name, lowering and elision flags) with no lifecycle,
// which is what makes their compiled modules safely shareable through
// the process-wide module cache. Each constructor fixes one pipeline:
// both optimize flatten's stack stream (rir.Func.Optimize); wavm then
// lowers it to register IR and runs the back half (elision, address
// folding, pair fusion), while wasmtime emits the optimized stream as
// it is.
type Engine struct {
	name string
	// lower selects rir.Func.Lower and the back half (backHalf) after
	// the optimizer.
	lower bool
	elide bool
	cache core.ModuleCache
}

// NewWAVM returns the WAVM analog: ahead-of-time compilation with
// the optimizer, register-IR lowering, bounds-check elision, address
// folding and pair fusion (the run-loop-level stand-ins for LLVM's
// optimizing pipeline). SetElision turns elision off for the ablation
// and the tiered engine's top tier.
func NewWAVM() *Engine {
	return &Engine{
		name:  "wavm",
		lower: true,
		elide: true,
		cache: modcache.Shared(),
	}
}

// NewWasmtime returns the Wasmtime analog: one forward optimizing pass
// over flatten's stack stream — constant folding, copy propagation,
// forwarding into local.set, compare+branch fusion — and emit, with no
// lowering, elision or address folding (the Cranelift stand-in, folding
// operands as it compiles the way even a baseline compiler does).
func NewWasmtime() *Engine {
	return &Engine{
		name:  "wasmtime",
		cache: modcache.Shared(),
	}
}

// SetCache implements core.Engine: it redirects the engine's compile
// path to c, or detaches it from caching when c is nil. Call before
// the first Compile.
func (e *Engine) SetCache(c core.ModuleCache) { e.cache = c }

// SetElision turns the bounds-check elision pass on or off. Call
// before the first Compile; the flag folds into the module-cache key,
// so modules compiled with and without it never alias. Elision reads
// register-lowered IR and is part of the back half, which the
// single-pass engine does not run: SetElision is an error there.
func (e *Engine) SetElision(on bool) error {
	if !e.lower {
		return fmt.Errorf("compiled: %s has no bounds-check elision pass", e.name)
	}
	e.elide = on
	return nil
}

// codegenFlags packs everything that shapes the emitted code — bit 0
// lower (and the back half), bit 1 elision — for the module-cache key
// and the artifact header alike, so the two cannot disagree about what
// a compile is.
func (e *Engine) codegenFlags() byte {
	var fl byte
	if e.lower {
		fl |= 1
	}
	if e.elide {
		fl |= 2
	}
	return fl
}

// cacheOpts fingerprints the engine's codegen for the cache key.
func (e *Engine) cacheOpts() string { return fmt.Sprintf("codegen=%02b", e.codegenFlags()) }

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

// cfunc is one compiled function: what its execution needs, and no
// more — the executed stream emit chose from the function's register
// IR, and the cold tables its ops index. The artifact tier re-derives
// the front half from the module when it encodes (artifact.go), so
// nothing of the IR stays.
type cfunc struct {
	name      string
	typ       wasm.FuncType
	numParams int
	numLocals int
	frameSize int    // locals + registers (or operand slots): what prove checks against
	index     uint32 // function-space index, the profiler's function
	code      []op
	pairs     [][2]op                  // fused pairs' halves, by op.c
	tables    [][]flatten.BranchTarget // br_tables' targets, default last, by op.c
	checks    []rir.CheckPlan          // range checks' plans, by op.c
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
	// accounted is funcs with an account op in front of every op, built
	// by the first instance that counts cycles or publishes to a
	// profiler cell; plain instances never build it.
	accountOnce sync.Once
	accounted   []*cfunc
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
//	flatten → rir.Build → rir.Optimize → rir.Compact → rir.Lower
//	        → elide (bounds-check elision)
//	        → fuseAddrs (address-mode folding)
//	        → rir.FuseMem (jump threading, pair superinstructions) → emit
//
// on wavm, and flatten → rir.Build → rir.Optimize → rir.Compact → emit
// on wasmtime.
// Functions compile independently — they share only the read-only
// *wasm.Module and the atomic rir/bce counters — so the chain runs on
// fanout's workers. validate.Module returns at once for a module that
// was validated when it was decoded or built.
func (e *Engine) compileModule(m *wasm.Module) (*Module, error) {
	if err := validate.Module(m); err != nil {
		return nil, err
	}
	imported := uint32(m.NumImportedFuncs())
	funcs := make([]*cfunc, len(m.Code))
	i, err := fanout.Each(len(m.Code), func() func(int) error {
		sc := new(scratch)
		return func(i int) (err error) {
			funcs[i], err = e.compileFunc(m, imported, i, sc)
			return err
		}
	})
	if err != nil {
		return nil, fmt.Errorf("compiled: function %d: %w", i, err)
	}
	return &Module{engine: e, wasm: m, funcs: funcs, imported: imported}, nil
}

// scratch is one compile worker's memory, reused across the functions
// the worker takes (DESIGN.md §13): flatten's output buffer, the rir
// passes' tables and the back half's (bceScratch). Nothing a module
// keeps points into it: emit copies what the function runs out of the
// stream and its cold tables.
type scratch struct {
	flat flatten.Scratch
	ir   rir.Scratch
	bce  bceScratch
}

// compileFunc compiles m.Code[i], function imported+i of the function
// space, on sc: lowerFunc, then emit.
func (e *Engine) compileFunc(m *wasm.Module, imported uint32, i int, sc *scratch) (*cfunc, error) {
	cf, f, err := e.lowerFunc(m, imported, i, sc)
	if err != nil {
		return nil, err
	}
	if err := cf.emit(f); err != nil {
		return nil, err
	}
	return cf, nil
}

// lowerFunc runs the chain for m.Code[i] up to the stream emit
// receives — frontHalf, then backHalf on the same stream — and counts
// it in rir's counters. The stream returned is one of sc's, valid
// until sc compiles the next function.
func (e *Engine) lowerFunc(m *wasm.Module, imported uint32, i int, sc *scratch) (*cfunc, *rir.Func, error) {
	start := time.Now()
	cf, f, n, err := e.frontHalf(m, imported, i, sc)
	if err != nil {
		return nil, nil, err
	}
	rir.RecordOptimize(n.fusedCmpBr)
	f = e.backHalf(f, sc)
	if e.lower {
		rir.RecordLowering(n.opsIn, len(f.Code), n.regs, time.Since(start).Nanoseconds())
	}
	return cf, f, nil
}

// frontCounts is what the front half did to one function, for rir's
// counters.
type frontCounts struct{ opsIn, regs, fusedCmpBr int }

// frontHalf runs flatten, build, Optimize, Compact and, on wavm, Lower
// for m.Code[i] on sc: the last stage whose every op and cold payload
// is plain data, which is what the disk artifact holds. It counts
// nothing itself — EncodeArtifact re-derives a compiled module's front
// halves, and an encode is no compile — and returns its stream in sc.
//
// Lower must precede elide and fuseAddrs — they capture raw register
// indices in CheckPlan ranges and folded addresses — and FuseMem
// runs last so it pairs accesses with their addresses already folded.
// Lowering shrinks the frame from locals+maxStack to locals+registers
// (plus the same scratch pad flatten reserves above MaxStack).
func (e *Engine) frontHalf(m *wasm.Module, imported uint32, i int, sc *scratch) (*cfunc, *rir.Func, frontCounts, error) {
	var n frontCounts
	index := imported + uint32(i)
	ff, err := sc.flat.Flatten(m, index, &m.Code[i])
	if err != nil {
		return nil, nil, n, err
	}
	f, err := rir.BuildFunc(ff, &sc.ir)
	if err != nil {
		return nil, nil, n, err
	}
	n.opsIn = len(f.Code)
	n.fusedCmpBr = f.Optimize(&sc.ir)
	f.Compact(&sc.ir)
	frameSize := ff.NumLocals + ff.MaxStack
	if e.lower {
		n.regs = f.Lower(&sc.ir)
		// Mirror flatten's MaxStack = maxH+8 scratch margin.
		frameSize = ff.NumLocals + n.regs + 8
	}
	cf := &cfunc{
		name:      ff.Name,
		typ:       ff.Type,
		numParams: ff.NumParams,
		numLocals: ff.NumLocals,
		frameSize: frameSize,
		index:     index,
	}
	return cf, f, n, nil
}

// EmittedIR returns what the dump tools print side by side for
// m.Code[i]: the stack-shaped IR rir.BuildFunc makes of the body and
// the IR exactly as emit receives it from e's pipeline (on wavm:
// optimized, lowered, elided, jumps threaded, pairs fused).
func (e *Engine) EmittedIR(m *wasm.Module, i int) (built, emitted *rir.Func, err error) {
	imported := uint32(m.NumImportedFuncs())
	ff, err := flatten.Flatten(m, imported+uint32(i), &m.Code[i])
	if err != nil {
		return nil, nil, err
	}
	if built, err = rir.BuildFunc(ff, nil); err != nil {
		return nil, nil, err
	}
	_, emitted, err = e.lowerFunc(m, imported, i, new(scratch))
	if err != nil {
		return nil, nil, err
	}
	return built, emitted, nil
}

// backHalf runs the passes whose output is not plain data, elide →
// fuseAddrs → FuseMem, on the front half's stream f, and returns the IR
// to emit; a fresh compile and an artifact decode share it. Address
// folding is codegen, not elision: it runs on every compile that
// lowers, with elision on or off, and only the single-pass stream goes
// without the back half. The passes rewrite f in place, except that
// versioning lays its longer stream out in sc.
func (e *Engine) backHalf(f *rir.Func, sc *scratch) *rir.Func {
	if !e.lower {
		return f
	}
	if e.elide {
		elide(f, sc)
	}
	fuseAddrs(f, sc)
	f.FuseMem(&sc.ir)
	return f
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
		funcs:  cm.funcs,
		stack:  make([]uint64, 4096),
		count:  cfg.CountCycles,
		prof:   base.ProfCell,
		ckSoft: ckSoft,
	}
	if inst.count || inst.prof != nil {
		inst.funcs = cm.accountedFuncs()
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
	funcs []*cfunc // the module's plain or accounted streams
	stack []uint64
	count bool
	// prof/ckSoft are hoisted from the base at instantiation for the
	// account op: what it publishes, and whether a checked access shows.
	prof   *prof.Cell
	ckSoft bool
	// dispatches counts the ops executed under Config.CountCycles: the
	// unit the run loop's time is made of, which superinstruction
	// fusion exists to shrink. A fused pair is one dispatch, whatever
	// it charges the cycle model. BenchmarkSteadyKernels reports it.
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
	cf := inst.funcs[idx-imported]
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

// accountedFuncs returns the module's accounted streams, building them
// on first use: each op is preceded by the account op that charges and
// publishes it, and every branch target, in the stream and in the
// br_table targets, moves to the account op in front of its old
// target. The pairs and range-check plans are shared with funcs.
func (cm *Module) accountedFuncs() []*cfunc {
	cm.accountOnce.Do(func() {
		cm.accounted = make([]*cfunc, len(cm.funcs))
		for i, cf := range cm.funcs {
			ac := *cf
			ac.code = make([]op, 0, 2*len(cf.code))
			for _, x := range cf.code {
				a := cf.account(&x)
				x.t, x.e = 2*x.t, 2*x.e
				ac.code = append(ac.code, a, x)
			}
			ac.tables = make([][]flatten.BranchTarget, len(cf.tables))
			for k, t := range cf.tables {
				ac.tables[k] = slices.Clone(t)
				for j := range ac.tables[k] {
					ac.tables[k][j].Tgt *= 2
				}
			}
			cm.accounted[i] = &ac
		}
	})
	return cm.accounted
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
	cf := inst.funcs[fi-imported]
	inst.base.EnterCall()
	inst.ensureStack(calleeBase, cf)
	for i := calleeBase + cf.numParams; i < calleeBase+cf.numLocals; i++ {
		inst.stack[i] = 0
	}
	inst.run(cf, calleeBase)
	inst.base.LeaveCall()
}
