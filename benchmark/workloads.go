package main

import (
	"fmt"
	"time"

	leaps "leapsandbounds"
	"leapsandbounds/internal/core"
	"leapsandbounds/internal/validate"
	"leapsandbounds/internal/wasm"
	g "leapsandbounds/internal/wasmgen"
)

// bench is what one set-up hands to the measured loop.
type bench struct {
	cells []*cell
	// layer carries per-layer timings the set-up itself took (template
	// builds), raw; the run normalises them and reports each key's median.
	layer map[string][]float64
}

// procSet holds the run's simulated processes. They outlive the
// set-ups, so that arena pools stay warm when an epoch recompiles.
type procSet map[string]*leaps.Process

func (ps procSet) get(key string) *leaps.Process {
	if ps[key] == nil {
		ps[key] = leaps.NewProcess(profile)
	}
	return ps[key]
}

func (ps procSet) close() {
	for _, p := range ps {
		p.Close()
	}
}

// workloadDef names one workload. setup builds everything the measured
// loop needs from scratch — modules or corpus, references, compile-once,
// templates. It runs once per epoch, so each call must do the full work
// again, and it must list the same cells in the same order every time.
type workloadDef struct {
	name, why string
	setup     func(seed int64, ps procSet) (*bench, error)
	// phaseB adds the contended phase (churn.go) to a traced run.
	phaseB bool
	// quick: ops of a few ms and hundreds of samples per cell, read at
	// their 5th percentile (reader, calib.go).
	quick bool
}

var workloadDefs = []workloadDef{
	{"steady", "long-running kernels: the generated code's run loop and the mem access path do ~all the work, per strategy and engine", setupSteady, false, false},
	{"coldstart", "bytes to first result on seeded many-function modules: decode, validate, flatten, rir and emit do ~98% of the work", setupColdstart, false, false},
	{"churn", "short-lived isolates, fresh and forked, on a 64 MiB reservation: core, mem grow/fault-commit and vmm provisioning and teardown are the work", setupChurn, true, true},
	{"hostcall", "WASI-heavy guests with a fresh in-memory FS per op: the guest/host boundary (wasi, core host views) carries the load", setupHostcall, false, true},
}

type gridCell struct {
	engine   string
	strategy leaps.Strategy
}

var profile = leaps.ProfileX86()

// class is the kernels' problem size; tests shrink it.
var class = leaps.SizeBench

// engineSet compiles through one engine per name, created once per
// set-up. The shared compile cache is purged first so that every
// set-up pays the compile ("cached compile once per engine").
type engineSet struct {
	engines map[string]leaps.Engine
	closers []func()
}

func newEngineSet() *engineSet {
	leaps.CompileCache().Purge()
	return &engineSet{engines: map[string]leaps.Engine{}}
}

func (es *engineSet) compile(engine string, m *leaps.Module) (leaps.CompiledModule, error) {
	eng, ok := es.engines[engine]
	if !ok {
		var closeEng func()
		var err error
		if eng, closeEng, err = leaps.NewEngine(engine); err != nil {
			return nil, err
		}
		es.engines[engine] = eng
		es.closers = append(es.closers, closeEng)
	}
	return eng.Compile(m)
}

func (es *engineSet) close() {
	for _, c := range es.closers {
		c()
	}
}

// countedRun runs entry once under the cycle model and returns the
// number of guest ops executed.
func countedRun(cm leaps.CompiledModule, cfg leaps.Config, imports leaps.Imports, entry string, args ...uint64) (int64, error) {
	cfg.CountCycles = true
	inst, err := cm.Instantiate(cfg, imports)
	if err != nil {
		return 0, err
	}
	defer inst.Close()
	if _, err := inst.Invoke(entry, args...); err != nil {
		return 0, err
	}
	return inst.Counts().Total(), nil
}

// kernelCells builds kernel × grid cells over registered workloads at
// class Bench. The reference digest is the kernel's native Go twin,
// never another engine's output.
func kernelCells(ps procSet, kernels []string, grid []gridCell) (*bench, error) {
	es := newEngineSet()
	defer es.close()
	b := &bench{}
	for _, k := range kernels {
		wl, err := leaps.WorkloadByName(k)
		if err != nil {
			return nil, err
		}
		// BuildFn, not the memoized Build: each set-up must redo the work.
		m, native := wl.BuildFn(class)
		want := native()
		imports := func(r *recorder) leaps.Imports { return nil }
		if wl.NewEnv != nil {
			imports = func(r *recorder) leaps.Imports {
				sp := r.begin(spanNewEnv)
				im := wl.NewEnv(class).Imports()
				if r != nil {
					im = tracedImports(r, im)
				}
				r.end(sp)
				return im
			}
		}
		for _, gc := range grid {
			cm, err := es.compile(gc.engine, m)
			if err != nil {
				return nil, fmt.Errorf("%s on %s: %w", k, gc.engine, err)
			}
			name := fmt.Sprintf("%s/%s/%s", k, gc.engine, gc.strategy)
			proc := ps.get(name)
			cfg := proc.Config(gc.strategy)
			b.cells = append(b.cells, &cell{
				name: name, engine: gc.engine, strategy: gc.strategy, proc: proc,
				op: opSpec{
					ready: func(r *recorder) (leaps.Instance, error) {
						return instantiate(r, cm, cfg, imports(r))
					},
					entry: "run", want: want,
				},
				countOps: func() (int64, error) { return countedRun(cm, cfg, imports(nil), "run") },
			})
		}
	}
	return b, nil
}

// tracedImports wraps every host function in a span, so a traced run
// sees each guest→host crossing.
func tracedImports(r *recorder, im leaps.Imports) leaps.Imports {
	out := leaps.Imports{}
	for mod, fields := range im {
		out[mod] = map[string]leaps.HostFunc{}
		for name, hf := range fields {
			fn, spanName := hf.Fn, spanHostcall+name
			hf.Fn = func(hc *leaps.HostContext, args []uint64) (uint64, error) {
				sp := r.begin(spanName)
				v, err := fn(hc, args)
				r.end(sp)
				return v, err
			}
			out[mod][name] = hf
		}
	}
	return out
}

// steady: the paper's Fig. 1–2. gemm (affine f64, hoistable checks),
// atax (row+column traversal), 505.mcf (pointer chasing, unhoistable
// addresses), 557.xz (byte loads/stores, hash chains) and
// 531.deepsjeng (recursion, the call path).
func setupSteady(_ int64, ps procSet) (*bench, error) {
	grid := []gridCell{
		{wavm, leaps.None}, {wavm, leaps.Clamp}, {wavm, leaps.Trap}, {wavm, leaps.Mprotect}, {wavm, leaps.Uffd},
		{wasmtime, leaps.Trap}, {wasmtime, leaps.Mprotect},
		{wasm3, leaps.Trap},
	}
	return kernelCells(ps, []string{"gemm", "atax", "505.mcf", "557.xz", "531.deepsjeng"}, grid)
}

// hostcall: logscan (fd_read per 192-byte chunk), kvstore (seek + 3:1
// get/put on 64-byte records), echo (read-transform-write-readback).
// trap and mprotect take the two HostMemView paths (eager copy vs live
// window).
func setupHostcall(_ int64, ps procSet) (*bench, error) {
	grid := []gridCell{{wavm, leaps.Trap}, {wavm, leaps.Mprotect}, {wasmtime, leaps.Trap}, {wasm3, leaps.Trap}}
	return kernelCells(ps, []string{"logscan", "kvstore", "echo"}, grid)
}

// cacheSetter is how the benchmark detaches an engine from the compile
// cache; declared here so that core's optional-interface names are not
// pinned by the benchmark.
type cacheSetter interface{ SetCache(core.ModuleCache) }

// coldCompile is the cold-start chain's compile step: a fresh engine
// with the cache detached, so every op pays the whole pipeline.
func coldCompile(engine string, m *leaps.Module) (leaps.CompiledModule, error) {
	eng, closeEng, err := leaps.NewEngine(engine)
	if err != nil {
		return nil, err
	}
	defer closeEng()
	cs, ok := eng.(cacheSetter)
	if !ok {
		return nil, fmt.Errorf("engine %s cannot detach its compile cache", engine)
	}
	cs.SetCache(nil)
	return eng.Compile(m)
}

// decode is leaps.DecodeModule; a traced run calls its two halves
// separately so that each gets its span.
func decode(r *recorder, data []byte) (*leaps.Module, error) {
	if r == nil {
		return leaps.DecodeModule(data)
	}
	sp := r.begin(spanDecode)
	m, err := wasm.Decode(data)
	r.end(sp)
	if err != nil {
		return nil, err
	}
	sp = r.begin(spanValidate)
	err = validate.Module(m)
	r.end(sp)
	return m, err
}

// coldstart: every op starts from bytes. The wavm arm runs under both a
// software and a VM strategy only so that every cell class has a cell;
// the strategy is ~0% of this op.
func setupColdstart(seed int64, ps procSet) (*bench, error) {
	corpus, err := genCorpus(seed, corpusFuncCounts)
	if err != nil {
		return nil, err
	}
	grid := []gridCell{{wavm, leaps.Trap}, {wavm, leaps.Mprotect}, {wasmtime, leaps.Trap}, {wasm3, leaps.Trap}}
	b := &bench{}
	for _, cmod := range corpus {
		for _, gc := range grid {
			name := fmt.Sprintf("%s/%s/%s", cmod.name, gc.engine, gc.strategy)
			proc := ps.get(name)
			cfg := proc.Config(gc.strategy)
			b.cells = append(b.cells, &cell{
				name: name, engine: gc.engine, strategy: gc.strategy, proc: proc,
				op: opSpec{
					ready: func(r *recorder) (leaps.Instance, error) {
						m, err := decode(r, cmod.bytes)
						if err != nil {
							return nil, err
						}
						sp := r.begin(spanCompile)
						cm, err := coldCompile(gc.engine, m)
						r.end(sp)
						if err != nil {
							return nil, err
						}
						return instantiate(r, cm, cfg, nil)
					},
					entry: "run", want: cmod.want,
				},
				countOps: func() (int64, error) {
					m, err := leaps.DecodeModule(cmod.bytes)
					if err != nil {
						return 0, err
					}
					cm, err := coldCompile(gc.engine, m)
					if err != nil {
						return 0, err
					}
					return countedRun(cm, cfg, nil, "run")
				},
			})
		}
	}
	return b, nil
}

// The churn handler: a 64 MiB reservation (half of core.DefaultMaxPages),
// init grows 8 × 4 wasm pages and writes one i64 into each 4 KiB page
// it gained (512 first-touch pages), handle reads them back and dirties
// one page. Guest execution is ~20 µs: provisioning and teardown are
// the work.
const (
	churnMaxPages  = 1024
	churnGrows     = 8
	churnGrowPages = 4
	churnTouchStep = 4096
	churnTouches   = churnGrows * churnGrowPages * 65536 / churnTouchStep
	churnMul       = int64(-0x61c8864680b583eb)
	churnArg       = 7
)

func churnHandler() (*leaps.Module, error) {
	mb := g.NewModule()
	mb.Memory(1, churnMaxPages)
	perGrow := int32(churnTouches / churnGrows)

	init := mb.Func("init")
	gi := init.LocalI32("g")
	k := init.LocalI32("k")
	idx := init.LocalI32("idx")
	init.Body(
		g.For(gi, g.I32(0), g.I32(churnGrows),
			g.Drop(g.MemGrow(g.I32(churnGrowPages))),
			g.For(k, g.I32(0), g.I32(perGrow),
				g.Set(idx, g.Add(g.Mul(g.Get(gi), g.I32(perGrow)), g.Get(k))),
				g.StoreI64(g.Mul(g.Get(idx), g.I32(churnTouchStep)), 65536,
					g.Mul(g.I64FromI32(g.Add(g.Get(idx), g.I32(1))), g.I64(churnMul))),
			),
		),
	)
	mb.Export("init", init)

	h := mb.Func("handle", wasm.I64)
	arg := h.ParamI64("arg")
	j := h.LocalI32("j")
	acc := h.LocalI64("acc")
	h.Body(
		g.Set(acc, g.Get(arg)),
		g.For(j, g.I32(0), g.I32(churnTouches),
			g.Set(acc, g.Add(g.Get(acc), g.LoadI64(g.Mul(g.Get(j), g.I32(churnTouchStep)), 65536))),
		),
		g.StoreI64(g.I32(0), 65536+8, g.Get(acc)),
		g.Return(g.Get(acc)),
	)
	mb.Export("handle", h)
	return mb.Module()
}

// churnWant is the closed form of what handle returns: arg plus the sum
// of (i+1)·churnMul for the churnTouches values init wrote.
func churnWant(arg uint64) uint64 {
	n, mul := uint64(churnTouches), churnMul
	return arg + uint64(mul)*(n*(n+1)/2)
}

// churn: the paper's Fig. 5–6 and §4.2. Cells of one strategy share one
// simulated process, so that phase B's clients contend on its mmap lock.
func setupChurn(_ int64, ps procSet) (*bench, error) {
	m, err := churnHandler()
	if err != nil {
		return nil, err
	}
	es := newEngineSet()
	defer es.close()
	b := &bench{layer: map[string][]float64{}}
	add := func(engine string, s leaps.Strategy, arm string, ready func(*recorder) (leaps.Instance, error)) {
		b.cells = append(b.cells, &cell{
			name:   fmt.Sprintf("handler/%s/%s/%s", engine, s, arm),
			engine: engine, strategy: s, arm: arm, proc: ps.get(s.String()),
			op: opSpec{ready: ready, entry: "handle", args: []uint64{churnArg}, want: churnWant(churnArg)},
		})
	}
	fresh := func(cm leaps.CompiledModule, cfg leaps.Config) func(*recorder) (leaps.Instance, error) {
		return func(r *recorder) (leaps.Instance, error) {
			inst, err := instantiate(r, cm, cfg, nil)
			if err != nil {
				return nil, err
			}
			sp := r.begin(spanInvokeInit)
			_, err = inst.Invoke("init")
			r.end(sp)
			if err != nil {
				_ = inst.Close() // the init error is the one to report
				return nil, err
			}
			return inst, nil
		}
	}
	cm, err := es.compile(wavm, m)
	if err != nil {
		return nil, err
	}
	for _, s := range leaps.Strategies() {
		cfg := ps.get(s.String()).Config(s)
		add(wavm, s, "fresh", fresh(cm, cfg))
		t0 := time.Now()
		tpl, err := leaps.NewTemplate(cm, cfg, nil, func(inst leaps.Instance) error {
			_, err := inst.Invoke("init")
			return err
		})
		if err != nil {
			return nil, err
		}
		b.layer["core.template_build_us"] = append(b.layer["core.template_build_us"], float64(time.Since(t0))/1e3)
		add(wavm, s, "fork", func(r *recorder) (leaps.Instance, error) {
			sp := r.begin(spanFork)
			inst, err := tpl.ForkWith(cfg)
			r.end(sp)
			return inst, err
		})
	}
	// One fresh cell per remaining engine class, so that every class has
	// a cell here too (an interpreter is what short-lived isolates
	// without a compile budget would run on).
	for _, gc := range []gridCell{{wasmtime, leaps.Mprotect}, {wasm3, leaps.Trap}} {
		cm, err := es.compile(gc.engine, m)
		if err != nil {
			return nil, err
		}
		add(gc.engine, gc.strategy, "fresh", fresh(cm, ps.get(gc.strategy.String()).Config(gc.strategy)))
	}
	return b, nil
}
