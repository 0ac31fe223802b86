package interp

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
	"unsafe"

	"leapsandbounds/internal/core"
	"leapsandbounds/internal/fanout"
	"leapsandbounds/internal/flatten"
	"leapsandbounds/internal/isa"
	"leapsandbounds/internal/mem"
	"leapsandbounds/internal/modcache"
	"leapsandbounds/internal/numeric"
	"leapsandbounds/internal/prof"
	"leapsandbounds/internal/trap"
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

// Engine is the threaded-interpreter engine. Like the compiled
// engines, an Engine is immutable configuration with no lifecycle,
// so its compiled modules are safely shared through the process-wide
// module cache.
type Engine struct {
	name      string
	forceTrap bool
	cache     core.ModuleCache
}

// NewWasm3 returns the Wasm3 analog: a threaded interpreter that,
// like Wasm3 in the paper (§3.2), always uses trap-equivalent bounds
// checks because the interpreter's memory accessors check bounds
// inline regardless of runtime configuration.
func NewWasm3() *Engine {
	return &Engine{
		name:      "wasm3",
		forceTrap: true,
		cache:     modcache.Shared(),
	}
}

// NewConfigurable returns an interpreter that honours the configured
// bounds-checking strategy; used for strategy ablations and as the
// baseline tier of the tiered (V8 analog) engine.
func NewConfigurable() *Engine {
	return &Engine{
		name:  "interp",
		cache: modcache.Shared(),
	}
}

// SetCache implements core.Engine; a nil cache detaches the engine
// from caching. Call before the first Compile.
func (e *Engine) SetCache(c core.ModuleCache) { e.cache = c }

// Name implements core.Engine.
func (e *Engine) Name() string { return e.name }

// Module is the interpreter's compiled form.
type Module struct {
	engine *Engine
	wasm   *wasm.Module
	funcs  []*flatten.Func // module-defined functions, in code order, fused
	// imported is wasm.NumImportedFuncs(), counted once: every guest
	// call splits the function space on it.
	imported uint32
	// accounted is the unfused streams with an OpAccount in front of
	// every instruction, built by the first instance that counts
	// cycles or publishes to a profiler cell; plain instances never
	// build it.
	accountOnce sync.Once
	accounted   []*flatten.Func
	accountErr  error
}

// Compile implements core.Engine. It routes through the engine's
// module cache: validate + flatten run only on a cache miss. "wasm3"
// and "interp" artifacts are keyed separately (the engine name is part
// of the key) even though flattening is identical, because the cached
// module retains the engine pointer whose forceTrap flag selects the
// memory accessors at instantiate.
func (e *Engine) Compile(m *wasm.Module) (core.CompiledModule, error) {
	compile := func() (core.CompiledModule, error) { return e.compileInterp(m) }
	if e.cache == nil {
		return compile()
	}
	cm, _, err := e.cache.GetOrCompile(m, e.name, "", compile)
	return cm, err
}

// compileInterp is the uncached compile pipeline: validate (at once,
// for a module validated when it was decoded or built), then flatten
// every function on fanout's workers.
func (e *Engine) compileInterp(m *wasm.Module) (core.CompiledModule, error) {
	if err := validate.Module(m); err != nil {
		return nil, err
	}
	imported := uint32(m.NumImportedFuncs())
	funcs, err := flattenAll(m, imported, true)
	if err != nil {
		return nil, err
	}
	return &Module{engine: e, wasm: m, funcs: funcs, imported: imported}, nil
}

// flattenAll flattens every function of m on fanout's workers and runs
// fold on each, fusing operands when fuse is set. A worker flattens and
// folds in buffers of its own, reused across the functions it takes,
// and the module keeps each folded stream and its side table copied out
// at their exact length.
func flattenAll(m *wasm.Module, imported uint32, fuse bool) ([]*flatten.Func, error) {
	funcs := make([]*flatten.Func, len(m.Code))
	i, err := fanout.Each(len(m.Code), func() func(int) error {
		var (
			sc  flatten.Scratch
			idx []int32
		)
		return func(i int) error {
			pf, err := sc.Flatten(m, imported+uint32(i), &m.Code[i])
			if err == nil {
				err = fold(pf, fuse, &idx)
			}
			if err != nil {
				return err
			}
			pf.Code, pf.Targets = slices.Clone(pf.Code), slices.Clone(pf.Targets)
			funcs[i] = pf
			return nil
		}
	})
	if err != nil {
		return nil, fmt.Errorf("interp: function %d: %w", i, err)
	}
	return funcs, nil
}

// accountedFuncs returns the module's instrumented streams, building
// them on first use. They are flattened again from the module, proved
// and left unfused, so they run one dispatch per wasm instruction
// where the plain streams run one per fused window. Each instruction
// is preceded by an OpAccount carrying its class and its proved height,
// and every branch target, in the stream and in the side table, moves
// to the OpAccount in front of its old target.
func (cm *Module) accountedFuncs() ([]*flatten.Func, error) {
	cm.accountOnce.Do(func() {
		funcs, err := flattenAll(cm.wasm, cm.imported, false)
		if err != nil {
			cm.accountErr = err
			return
		}
		for _, pf := range funcs {
			code := make([]flatten.Instr, 0, 2*len(pf.Code))
			for _, in := range pf.Code {
				in.Tgt *= 2
				code = append(code, flatten.Instr{Op: flatten.OpAccount, Mark: in.Mark, H: in.H}, in)
			}
			for k := range pf.Targets {
				pf.Targets[k].Tgt *= 2
			}
			pf.Code = code
		}
		cm.accounted = funcs
	})
	return cm.accounted, cm.accountErr
}

// Instantiate implements core.CompiledModule.
func (cm *Module) Instantiate(cfg core.Config, imports core.Imports) (core.Instance, error) {
	return cm.instantiate(cfg, imports, nil)
}

// InstantiateSnapshot implements core.CompiledModule.
func (cm *Module) InstantiateSnapshot(cfg core.Config, imports core.Imports, snap *core.StateSnapshot) (core.Instance, error) {
	return cm.instantiate(cfg, imports, snap)
}

// instantiate creates one isolate, fresh (snap nil: the start function
// runs) or from a template's frozen state. The wasm3 analog's forced
// trap checking applies to forks exactly as it does to fresh
// instances. An instance that counts cycles or has a profiler cell
// runs the instrumented streams; every other one runs the plain ones.
func (cm *Module) instantiate(cfg core.Config, imports core.Imports, snap *core.StateSnapshot) (core.Instance, error) {
	if cm.engine.forceTrap {
		cfg.Strategy = mem.Trap
	}
	if cfg.ProfLabel == "" {
		cfg.ProfLabel = "interp"
	}
	base, err := core.NewInstanceBase(cm.wasm, cfg, imports, snap)
	if err != nil {
		return nil, err
	}
	inst := &Instance{
		base:  base,
		mod:   cm,
		funcs: cm.funcs,
		stack: make([]uint64, 4096),
	}
	if cfg.CountCycles || base.ProfCell != nil {
		if inst.funcs, err = cm.accountedFuncs(); err != nil {
			_ = base.Close()
			return nil, err
		}
	}
	if snap == nil && cm.wasm.Start != nil {
		if _, err := inst.invokeIndex(*cm.wasm.Start, nil); err != nil {
			_ = base.Close()
			return nil, fmt.Errorf("interp: start function: %w", err)
		}
	}
	return inst, nil
}

// Instance is one interpreter isolate.
type Instance struct {
	base  *core.InstanceBase
	mod   *Module
	funcs []*flatten.Func // the module's plain or instrumented streams
	stack []uint64
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
func (inst *Instance) Invoke(name string, args ...uint64) (res []uint64, err error) {
	idx, ok := inst.mod.wasm.ExportedFunc(name)
	if !ok {
		return nil, fmt.Errorf("interp: no exported function %q", name)
	}
	sp := inst.base.BeginInvoke()
	res, err = inst.invokeIndex(idx, args)
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
	pf := inst.funcs[idx-imported]
	if len(args) != pf.NumParams {
		return nil, fmt.Errorf("interp: %d args for function with %d params", len(args), pf.NumParams)
	}
	inst.ensureStack(0, pf)
	copy(inst.stack, args)
	for i := pf.NumParams; i < pf.NumLocals; i++ {
		inst.stack[i] = 0
	}
	inst.exec(pf, 0)
	if len(pf.Type.Results) > 0 {
		return []uint64{inst.stack[0]}, nil
	}
	return nil, nil
}

// ensureStack grows the value stack to fit a frame at base.
func (inst *Instance) ensureStack(base int, pf *flatten.Func) {
	need := base + pf.NumLocals + pf.MaxStack
	if need > len(inst.stack) {
		ns := make([]uint64, max(need, 2*len(inst.stack)))
		copy(ns, inst.stack)
		inst.stack = ns
	}
}

// call dispatches a call to function-space index fi with arguments
// already placed at stack[argBase:]; results end up at argBase. It may
// reallocate inst.stack.
func (inst *Instance) call(fi uint32, argBase int) {
	imported := inst.mod.imported
	if fi < imported {
		inst.base.CallImport(fi, inst.stack, argBase)
		return
	}
	pf := inst.funcs[fi-imported]
	inst.base.EnterCall()
	inst.ensureStack(argBase, pf)
	for i := argBase + pf.NumParams; i < argBase+pf.NumLocals; i++ {
		inst.stack[i] = 0
	}
	inst.exec(pf, argBase)
	inst.base.LeaveCall()
}

// frame addresses one activation's slots in inst.stack's backing
// array: the locals from 0, the operand stack from NumLocals. fold
// proves that every slot exec addresses for a function lies below
// NumLocals+MaxStack, and ensureStack makes that many slots follow the
// frame's base, so exec reads and writes them without Go's bounds
// checks.
type frame struct{ p unsafe.Pointer }

func frameAt(stack []uint64, base int) frame { return frame{unsafe.Pointer(&stack[base])} }

// at returns slot i of the frame.
func (f frame) at(i int) *uint64 { return (*uint64)(unsafe.Add(f.p, i*8)) }

// brEntry returns entry k of pf's side table. fold proves that every
// br_table's range [A, A+B) of the table is not empty and lies in it,
// so exec reads the entry a br_table selects without Go's bounds check.
func brEntry(pf *flatten.Func, k uint64) *flatten.BranchTarget {
	return (*flatten.BranchTarget)(unsafe.Add(unsafe.Pointer(unsafe.SliceData(pf.Targets)), k*uint64(unsafe.Sizeof(flatten.BranchTarget{}))))
}

// exec runs a pre-decoded function with its locals at stack[base:].
// The operand stack occupies stack[base+numLocals:]. On return, the
// function's results (if any) are at stack[base:].
//
// Every opcode the stream can hold (wasm's, flatten's pseudo-ops and
// fold's private ones) is a case of one switch, which Go compiles to a
// single jump table: one indirect jump per instruction, which in a
// plain stream stands for up to four wasm instructions.
// Slots are addressed through fr, re-read from inst.stack after the
// two ops whose callee can grow it; sp counts slots from the frame's
// base.
func (inst *Instance) exec(pf *flatten.Func, base int) {
	code := pf.Code
	opBase := pf.NumLocals
	sp := opBase // next free slot
	fr := frameAt(inst.stack, base)
	memory := inst.base.Mem
	// Read by the OpAccount arm only, which plain streams never reach.
	var counts *isa.Counts
	if inst.base.Cfg.CountCycles {
		counts = &inst.base.CycleCounts
	}
	ckClass, ckOn := inst.base.CheckClass()
	cell := inst.base.ProfCell

	for pc := 0; ; pc++ {
		in := &code[pc]
		switch in.Op {
		case flatten.OpAccount: // charge and publish the next instruction
			if sp != opBase+int(in.H) {
				trap.Throwf(trap.HostError, "interp: %s at pc %d runs at height %d, proved %d", code[pc+1].Op, pc+1, sp-opBase, in.H)
			}
			class := in.Mark.Class()
			checked := ckOn && (class == isa.ClassLoad || class == isa.ClassStore)
			if counts != nil {
				counts[class]++
				counts[isa.ClassDispatch]++
				if checked {
					counts[ckClass]++
				}
			}
			var fl uint8
			if checked {
				fl = prof.FlagChecked
			}
			cell.Set(pf.Index, class, fl) // a no-op on a nil cell
		case flatten.OpIfFalse:
			sp--
			if uint32(*fr.at(sp)) == 0 {
				pc = int(in.Tgt) - 1
			}
		case flatten.OpBranchIf:
			sp--
			if uint32(*fr.at(sp)) == 0 {
				break
			}
			fallthrough
		case flatten.OpJump:
			dst := opBase + int(in.PopTo)
			if in.Arity > 0 {
				*fr.at(dst) = *fr.at(sp - 1)
				dst++
			}
			sp = dst
			pc = int(in.Tgt) - 1
		case wasm.OpBrTable:
			sp--
			bt := brEntry(pf, in.A+min(uint64(uint32(*fr.at(sp))), in.B-1)) // default entry last
			dst := opBase + int(bt.PopTo)
			if bt.Arity > 0 {
				*fr.at(dst) = *fr.at(sp - 1)
				dst++
			}
			sp = dst
			pc = int(bt.Tgt) - 1
		case flatten.OpReturnEnd:
			if in.Arity > 0 {
				*fr.at(0) = *fr.at(sp - 1)
			}
			return
		case wasm.OpUnreachable:
			trap.Throw(trap.Unreachable)
		case wasm.OpCall:
			argBase := opBase + int(in.PopTo)
			inst.call(uint32(in.A), base+argBase)
			fr = frameAt(inst.stack, base)
			sp = argBase + int(in.Arity)
		case wasm.OpCallIndirect:
			sp--
			fi := inst.base.ResolveIndirect(uint32(*fr.at(sp)), uint32(in.A))
			argBase := opBase + int(in.PopTo)
			inst.call(fi, base+argBase)
			fr = frameAt(inst.stack, base)
			sp = argBase + int(in.Arity)
		case wasm.OpDrop:
			sp--
		case wasm.OpSelect:
			sp -= 2
			if uint32(*fr.at(sp + 1)) == 0 {
				*fr.at(sp - 1) = *fr.at(sp)
			}
		case wasm.OpLocalGet:
			*fr.at(sp) = *fr.at(int(in.A))
			sp++
		case wasm.OpLocalSet:
			sp--
			*fr.at(int(in.A)) = *fr.at(sp)
		case wasm.OpLocalTee:
			*fr.at(int(in.A)) = *fr.at(sp - 1)
		case wasm.OpGlobalGet:
			*fr.at(sp) = inst.base.Globals[in.A]
			sp++
		case wasm.OpGlobalSet:
			sp--
			inst.base.Globals[in.A] = *fr.at(sp)
		case wasm.OpMemorySize:
			*fr.at(sp) = uint64(memory.SizePages())
			sp++
		case wasm.OpMemoryGrow:
			*fr.at(sp - 1) = uint64(uint32(memory.Grow(uint32(*fr.at(sp - 1)))))
		case wasm.OpI32Const, wasm.OpI64Const, wasm.OpF32Const, wasm.OpF64Const:
			*fr.at(sp) = in.A
			sp++
		case wasm.OpPrefix:
			sp = inst.execPrefix(in, fr, sp)
		// loads and stores: base + static offset, in 64 bits, cannot wrap
		case wasm.OpI32Load, wasm.OpF32Load, wasm.OpI64Load32U:
			*fr.at(sp - 1) = uint64(memory.LoadU32(uint64(uint32(*fr.at(sp - 1))) + in.B))
		case wasm.OpI64Load, wasm.OpF64Load:
			*fr.at(sp - 1) = memory.LoadU64(uint64(uint32(*fr.at(sp - 1))) + in.B)
		case wasm.OpI32Load8S:
			*fr.at(sp - 1) = uint64(uint32(int32(int8(memory.LoadU8(uint64(uint32(*fr.at(sp - 1))) + in.B)))))
		case wasm.OpI32Load8U, wasm.OpI64Load8U:
			*fr.at(sp - 1) = uint64(memory.LoadU8(uint64(uint32(*fr.at(sp - 1))) + in.B))
		case wasm.OpI32Load16S:
			*fr.at(sp - 1) = uint64(uint32(int32(int16(memory.LoadU16(uint64(uint32(*fr.at(sp - 1))) + in.B)))))
		case wasm.OpI32Load16U, wasm.OpI64Load16U:
			*fr.at(sp - 1) = uint64(memory.LoadU16(uint64(uint32(*fr.at(sp - 1))) + in.B))
		case wasm.OpI64Load8S:
			*fr.at(sp - 1) = uint64(int64(int8(memory.LoadU8(uint64(uint32(*fr.at(sp - 1))) + in.B))))
		case wasm.OpI64Load16S:
			*fr.at(sp - 1) = uint64(int64(int16(memory.LoadU16(uint64(uint32(*fr.at(sp - 1))) + in.B))))
		case wasm.OpI64Load32S:
			*fr.at(sp - 1) = uint64(int64(int32(memory.LoadU32(uint64(uint32(*fr.at(sp - 1))) + in.B))))
		case wasm.OpI32Store, wasm.OpF32Store, wasm.OpI64Store32:
			sp -= 2
			memory.StoreU32(uint64(uint32(*fr.at(sp)))+in.B, uint32(*fr.at(sp + 1)))
		case wasm.OpI64Store, wasm.OpF64Store:
			sp -= 2
			memory.StoreU64(uint64(uint32(*fr.at(sp)))+in.B, *fr.at(sp + 1))
		case wasm.OpI32Store8, wasm.OpI64Store8:
			sp -= 2
			memory.StoreU8(uint64(uint32(*fr.at(sp)))+in.B, byte(*fr.at(sp + 1)))
		case wasm.OpI32Store16, wasm.OpI64Store16:
			sp -= 2
			memory.StoreU16(uint64(uint32(*fr.at(sp)))+in.B, uint16(*fr.at(sp + 1)))
		// i32 comparisons
		case wasm.OpI32Eqz:
			*fr.at(sp - 1) = b2u(uint32(*fr.at(sp - 1)) == 0)
		case wasm.OpI32Eq:
			sp--
			*fr.at(sp - 1) = b2u(uint32(*fr.at(sp - 1)) == uint32(*fr.at(sp)))
		case wasm.OpI32Ne:
			sp--
			*fr.at(sp - 1) = b2u(uint32(*fr.at(sp - 1)) != uint32(*fr.at(sp)))
		case wasm.OpI32LtS:
			sp--
			*fr.at(sp - 1) = b2u(int32(*fr.at(sp - 1)) < int32(*fr.at(sp)))
		case wasm.OpI32LtU:
			sp--
			*fr.at(sp - 1) = b2u(uint32(*fr.at(sp - 1)) < uint32(*fr.at(sp)))
		case wasm.OpI32GtS:
			sp--
			*fr.at(sp - 1) = b2u(int32(*fr.at(sp - 1)) > int32(*fr.at(sp)))
		case wasm.OpI32GtU:
			sp--
			*fr.at(sp - 1) = b2u(uint32(*fr.at(sp - 1)) > uint32(*fr.at(sp)))
		case wasm.OpI32LeS:
			sp--
			*fr.at(sp - 1) = b2u(int32(*fr.at(sp - 1)) <= int32(*fr.at(sp)))
		case wasm.OpI32LeU:
			sp--
			*fr.at(sp - 1) = b2u(uint32(*fr.at(sp - 1)) <= uint32(*fr.at(sp)))
		case wasm.OpI32GeS:
			sp--
			*fr.at(sp - 1) = b2u(int32(*fr.at(sp - 1)) >= int32(*fr.at(sp)))
		case wasm.OpI32GeU:
			sp--
			*fr.at(sp - 1) = b2u(uint32(*fr.at(sp - 1)) >= uint32(*fr.at(sp)))
		// i64 comparisons
		case wasm.OpI64Eqz:
			*fr.at(sp - 1) = b2u(*fr.at(sp - 1) == 0)
		case wasm.OpI64Eq:
			sp--
			*fr.at(sp - 1) = b2u(*fr.at(sp - 1) == *fr.at(sp))
		case wasm.OpI64Ne:
			sp--
			*fr.at(sp - 1) = b2u(*fr.at(sp - 1) != *fr.at(sp))
		case wasm.OpI64LtS:
			sp--
			*fr.at(sp - 1) = b2u(int64(*fr.at(sp - 1)) < int64(*fr.at(sp)))
		case wasm.OpI64LtU:
			sp--
			*fr.at(sp - 1) = b2u(*fr.at(sp - 1) < *fr.at(sp))
		case wasm.OpI64GtS:
			sp--
			*fr.at(sp - 1) = b2u(int64(*fr.at(sp - 1)) > int64(*fr.at(sp)))
		case wasm.OpI64GtU:
			sp--
			*fr.at(sp - 1) = b2u(*fr.at(sp - 1) > *fr.at(sp))
		case wasm.OpI64LeS:
			sp--
			*fr.at(sp - 1) = b2u(int64(*fr.at(sp - 1)) <= int64(*fr.at(sp)))
		case wasm.OpI64LeU:
			sp--
			*fr.at(sp - 1) = b2u(*fr.at(sp - 1) <= *fr.at(sp))
		case wasm.OpI64GeS:
			sp--
			*fr.at(sp - 1) = b2u(int64(*fr.at(sp - 1)) >= int64(*fr.at(sp)))
		case wasm.OpI64GeU:
			sp--
			*fr.at(sp - 1) = b2u(*fr.at(sp - 1) >= *fr.at(sp))
		// f32 comparisons
		case wasm.OpF32Eq:
			sp--
			*fr.at(sp - 1) = b2u(f32(*fr.at(sp - 1)) == f32(*fr.at(sp)))
		case wasm.OpF32Ne:
			sp--
			*fr.at(sp - 1) = b2u(f32(*fr.at(sp - 1)) != f32(*fr.at(sp)))
		case wasm.OpF32Lt:
			sp--
			*fr.at(sp - 1) = b2u(f32(*fr.at(sp - 1)) < f32(*fr.at(sp)))
		case wasm.OpF32Gt:
			sp--
			*fr.at(sp - 1) = b2u(f32(*fr.at(sp - 1)) > f32(*fr.at(sp)))
		case wasm.OpF32Le:
			sp--
			*fr.at(sp - 1) = b2u(f32(*fr.at(sp - 1)) <= f32(*fr.at(sp)))
		case wasm.OpF32Ge:
			sp--
			*fr.at(sp - 1) = b2u(f32(*fr.at(sp - 1)) >= f32(*fr.at(sp)))
		// f64 comparisons
		case wasm.OpF64Eq:
			sp--
			*fr.at(sp - 1) = b2u(f64(*fr.at(sp - 1)) == f64(*fr.at(sp)))
		case wasm.OpF64Ne:
			sp--
			*fr.at(sp - 1) = b2u(f64(*fr.at(sp - 1)) != f64(*fr.at(sp)))
		case wasm.OpF64Lt:
			sp--
			*fr.at(sp - 1) = b2u(f64(*fr.at(sp - 1)) < f64(*fr.at(sp)))
		case wasm.OpF64Gt:
			sp--
			*fr.at(sp - 1) = b2u(f64(*fr.at(sp - 1)) > f64(*fr.at(sp)))
		case wasm.OpF64Le:
			sp--
			*fr.at(sp - 1) = b2u(f64(*fr.at(sp - 1)) <= f64(*fr.at(sp)))
		case wasm.OpF64Ge:
			sp--
			*fr.at(sp - 1) = b2u(f64(*fr.at(sp - 1)) >= f64(*fr.at(sp)))
		// i32 arithmetic
		case wasm.OpI32Clz:
			*fr.at(sp - 1) = uint64(bits.LeadingZeros32(uint32(*fr.at(sp - 1))))
		case wasm.OpI32Ctz:
			*fr.at(sp - 1) = uint64(bits.TrailingZeros32(uint32(*fr.at(sp - 1))))
		case wasm.OpI32Popcnt:
			*fr.at(sp - 1) = uint64(bits.OnesCount32(uint32(*fr.at(sp - 1))))
		case wasm.OpI32Add:
			sp--
			*fr.at(sp - 1) = uint64(uint32(*fr.at(sp - 1)) + uint32(*fr.at(sp)))
		case wasm.OpI32Sub:
			sp--
			*fr.at(sp - 1) = uint64(uint32(*fr.at(sp - 1)) - uint32(*fr.at(sp)))
		case wasm.OpI32Mul:
			sp--
			*fr.at(sp - 1) = uint64(uint32(*fr.at(sp - 1)) * uint32(*fr.at(sp)))
		case wasm.OpI32DivS:
			sp--
			*fr.at(sp - 1) = uint64(uint32(numeric.DivS32(int32(*fr.at(sp - 1)), int32(*fr.at(sp)))))
		case wasm.OpI32DivU:
			sp--
			*fr.at(sp - 1) = uint64(numeric.DivU32(uint32(*fr.at(sp - 1)), uint32(*fr.at(sp))))
		case wasm.OpI32RemS:
			sp--
			*fr.at(sp - 1) = uint64(uint32(numeric.RemS32(int32(*fr.at(sp - 1)), int32(*fr.at(sp)))))
		case wasm.OpI32RemU:
			sp--
			*fr.at(sp - 1) = uint64(numeric.RemU32(uint32(*fr.at(sp - 1)), uint32(*fr.at(sp))))
		case wasm.OpI32And:
			sp--
			*fr.at(sp - 1) = uint64(uint32(*fr.at(sp - 1)) & uint32(*fr.at(sp)))
		case wasm.OpI32Or:
			sp--
			*fr.at(sp - 1) = uint64(uint32(*fr.at(sp - 1)) | uint32(*fr.at(sp)))
		case wasm.OpI32Xor:
			sp--
			*fr.at(sp - 1) = uint64(uint32(*fr.at(sp - 1)) ^ uint32(*fr.at(sp)))
		case wasm.OpI32Shl:
			sp--
			*fr.at(sp - 1) = uint64(uint32(*fr.at(sp - 1)) << (uint32(*fr.at(sp)) & 31))
		case wasm.OpI32ShrS:
			sp--
			*fr.at(sp - 1) = uint64(uint32(int32(*fr.at(sp - 1)) >> (uint32(*fr.at(sp)) & 31)))
		case wasm.OpI32ShrU:
			sp--
			*fr.at(sp - 1) = uint64(uint32(*fr.at(sp - 1)) >> (uint32(*fr.at(sp)) & 31))
		case wasm.OpI32Rotl:
			sp--
			*fr.at(sp - 1) = uint64(bits.RotateLeft32(uint32(*fr.at(sp - 1)), int(uint32(*fr.at(sp))&31)))
		case wasm.OpI32Rotr:
			sp--
			*fr.at(sp - 1) = uint64(bits.RotateLeft32(uint32(*fr.at(sp - 1)), -int(uint32(*fr.at(sp))&31)))
		// i64 arithmetic
		case wasm.OpI64Clz:
			*fr.at(sp - 1) = uint64(bits.LeadingZeros64(*fr.at(sp - 1)))
		case wasm.OpI64Ctz:
			*fr.at(sp - 1) = uint64(bits.TrailingZeros64(*fr.at(sp - 1)))
		case wasm.OpI64Popcnt:
			*fr.at(sp - 1) = uint64(bits.OnesCount64(*fr.at(sp - 1)))
		case wasm.OpI64Add:
			sp--
			*fr.at(sp - 1) += *fr.at(sp)
		case wasm.OpI64Sub:
			sp--
			*fr.at(sp - 1) -= *fr.at(sp)
		case wasm.OpI64Mul:
			sp--
			*fr.at(sp - 1) *= *fr.at(sp)
		case wasm.OpI64DivS:
			sp--
			*fr.at(sp - 1) = uint64(numeric.DivS64(int64(*fr.at(sp - 1)), int64(*fr.at(sp))))
		case wasm.OpI64DivU:
			sp--
			*fr.at(sp - 1) = numeric.DivU64(*fr.at(sp - 1), *fr.at(sp))
		case wasm.OpI64RemS:
			sp--
			*fr.at(sp - 1) = uint64(numeric.RemS64(int64(*fr.at(sp - 1)), int64(*fr.at(sp))))
		case wasm.OpI64RemU:
			sp--
			*fr.at(sp - 1) = numeric.RemU64(*fr.at(sp - 1), *fr.at(sp))
		case wasm.OpI64And:
			sp--
			*fr.at(sp - 1) &= *fr.at(sp)
		case wasm.OpI64Or:
			sp--
			*fr.at(sp - 1) |= *fr.at(sp)
		case wasm.OpI64Xor:
			sp--
			*fr.at(sp - 1) ^= *fr.at(sp)
		case wasm.OpI64Shl:
			sp--
			*fr.at(sp - 1) <<= *fr.at(sp) & 63
		case wasm.OpI64ShrS:
			sp--
			*fr.at(sp - 1) = uint64(int64(*fr.at(sp - 1)) >> (*fr.at(sp) & 63))
		case wasm.OpI64ShrU:
			sp--
			*fr.at(sp - 1) >>= *fr.at(sp) & 63
		case wasm.OpI64Rotl:
			sp--
			*fr.at(sp - 1) = bits.RotateLeft64(*fr.at(sp - 1), int(*fr.at(sp)&63))
		case wasm.OpI64Rotr:
			sp--
			*fr.at(sp - 1) = bits.RotateLeft64(*fr.at(sp - 1), -int(*fr.at(sp)&63))
		// f32 arithmetic
		case wasm.OpF32Abs:
			*fr.at(sp - 1) = u32f(float32(math.Abs(float64(f32(*fr.at(sp - 1))))))
		case wasm.OpF32Neg:
			*fr.at(sp - 1) = u32f(-f32(*fr.at(sp - 1)))
		case wasm.OpF32Ceil:
			*fr.at(sp - 1) = u32f(float32(math.Ceil(float64(f32(*fr.at(sp - 1))))))
		case wasm.OpF32Floor:
			*fr.at(sp - 1) = u32f(float32(math.Floor(float64(f32(*fr.at(sp - 1))))))
		case wasm.OpF32Trunc:
			*fr.at(sp - 1) = u32f(float32(math.Trunc(float64(f32(*fr.at(sp - 1))))))
		case wasm.OpF32Nearest:
			*fr.at(sp - 1) = u32f(numeric.Nearest32(f32(*fr.at(sp - 1))))
		case wasm.OpF32Sqrt:
			*fr.at(sp - 1) = u32f(float32(math.Sqrt(float64(f32(*fr.at(sp - 1))))))
		case wasm.OpF32Add:
			sp--
			*fr.at(sp - 1) = u32f(f32(*fr.at(sp - 1)) + f32(*fr.at(sp)))
		case wasm.OpF32Sub:
			sp--
			*fr.at(sp - 1) = u32f(f32(*fr.at(sp - 1)) - f32(*fr.at(sp)))
		case wasm.OpF32Mul:
			sp--
			*fr.at(sp - 1) = u32f(f32(*fr.at(sp - 1)) * f32(*fr.at(sp)))
		case wasm.OpF32Div:
			sp--
			*fr.at(sp - 1) = u32f(f32(*fr.at(sp - 1)) / f32(*fr.at(sp)))
		case wasm.OpF32Min:
			sp--
			*fr.at(sp - 1) = u32f(numeric.Fmin32(f32(*fr.at(sp - 1)), f32(*fr.at(sp))))
		case wasm.OpF32Max:
			sp--
			*fr.at(sp - 1) = u32f(numeric.Fmax32(f32(*fr.at(sp - 1)), f32(*fr.at(sp))))
		case wasm.OpF32Copysign:
			sp--
			*fr.at(sp - 1) = u32f(float32(math.Copysign(float64(f32(*fr.at(sp - 1))), float64(f32(*fr.at(sp))))))
		// f64 arithmetic
		case wasm.OpF64Abs:
			*fr.at(sp - 1) = uf(math.Abs(f64(*fr.at(sp - 1))))
		case wasm.OpF64Neg:
			*fr.at(sp - 1) = uf(-f64(*fr.at(sp - 1)))
		case wasm.OpF64Ceil:
			*fr.at(sp - 1) = uf(math.Ceil(f64(*fr.at(sp - 1))))
		case wasm.OpF64Floor:
			*fr.at(sp - 1) = uf(math.Floor(f64(*fr.at(sp - 1))))
		case wasm.OpF64Trunc:
			*fr.at(sp - 1) = uf(math.Trunc(f64(*fr.at(sp - 1))))
		case wasm.OpF64Nearest:
			*fr.at(sp - 1) = uf(numeric.Nearest(f64(*fr.at(sp - 1))))
		case wasm.OpF64Sqrt:
			*fr.at(sp - 1) = uf(math.Sqrt(f64(*fr.at(sp - 1))))
		case wasm.OpF64Add:
			sp--
			*fr.at(sp - 1) = uf(f64(*fr.at(sp - 1)) + f64(*fr.at(sp)))
		case wasm.OpF64Sub:
			sp--
			*fr.at(sp - 1) = uf(f64(*fr.at(sp - 1)) - f64(*fr.at(sp)))
		case wasm.OpF64Mul:
			sp--
			*fr.at(sp - 1) = uf(f64(*fr.at(sp - 1)) * f64(*fr.at(sp)))
		case wasm.OpF64Div:
			sp--
			*fr.at(sp - 1) = uf(f64(*fr.at(sp - 1)) / f64(*fr.at(sp)))
		case wasm.OpF64Min:
			sp--
			*fr.at(sp - 1) = uf(numeric.Fmin(f64(*fr.at(sp - 1)), f64(*fr.at(sp))))
		case wasm.OpF64Max:
			sp--
			*fr.at(sp - 1) = uf(numeric.Fmax(f64(*fr.at(sp - 1)), f64(*fr.at(sp))))
		case wasm.OpF64Copysign:
			sp--
			*fr.at(sp - 1) = uf(math.Copysign(f64(*fr.at(sp - 1)), f64(*fr.at(sp))))
		// conversions
		case wasm.OpI32WrapI64, wasm.OpI64ExtendI32U:
			*fr.at(sp - 1) = uint64(uint32(*fr.at(sp - 1)))
		case wasm.OpI32TruncF32S:
			*fr.at(sp - 1) = uint64(uint32(numeric.TruncF32ToI32(f32(*fr.at(sp - 1)))))
		case wasm.OpI32TruncF32U:
			*fr.at(sp - 1) = uint64(numeric.TruncF32ToU32(f32(*fr.at(sp - 1))))
		case wasm.OpI32TruncF64S:
			*fr.at(sp - 1) = uint64(uint32(numeric.TruncF64ToI32(f64(*fr.at(sp - 1)))))
		case wasm.OpI32TruncF64U:
			*fr.at(sp - 1) = uint64(numeric.TruncF64ToU32(f64(*fr.at(sp - 1))))
		case wasm.OpI64ExtendI32S, wasm.OpI64Extend32S:
			*fr.at(sp - 1) = uint64(int64(int32(*fr.at(sp - 1))))
		case wasm.OpI64TruncF32S:
			*fr.at(sp - 1) = uint64(numeric.TruncF32ToI64(f32(*fr.at(sp - 1))))
		case wasm.OpI64TruncF32U:
			*fr.at(sp - 1) = numeric.TruncF32ToU64(f32(*fr.at(sp - 1)))
		case wasm.OpI64TruncF64S:
			*fr.at(sp - 1) = uint64(numeric.TruncF64ToI64(f64(*fr.at(sp - 1))))
		case wasm.OpI64TruncF64U:
			*fr.at(sp - 1) = numeric.TruncF64ToU64(f64(*fr.at(sp - 1)))
		case wasm.OpF32ConvertI32S:
			*fr.at(sp - 1) = u32f(float32(int32(*fr.at(sp - 1))))
		case wasm.OpF32ConvertI32U:
			*fr.at(sp - 1) = u32f(float32(uint32(*fr.at(sp - 1))))
		case wasm.OpF32ConvertI64S:
			*fr.at(sp - 1) = u32f(float32(int64(*fr.at(sp - 1))))
		case wasm.OpF32ConvertI64U:
			*fr.at(sp - 1) = u32f(float32(*fr.at(sp - 1)))
		case wasm.OpF32DemoteF64:
			*fr.at(sp - 1) = u32f(float32(f64(*fr.at(sp - 1))))
		case wasm.OpF64ConvertI32S:
			*fr.at(sp - 1) = uf(float64(int32(*fr.at(sp - 1))))
		case wasm.OpF64ConvertI32U:
			*fr.at(sp - 1) = uf(float64(uint32(*fr.at(sp - 1))))
		case wasm.OpF64ConvertI64S:
			*fr.at(sp - 1) = uf(float64(int64(*fr.at(sp - 1))))
		case wasm.OpF64ConvertI64U:
			*fr.at(sp - 1) = uf(float64(*fr.at(sp - 1)))
		case wasm.OpF64PromoteF32:
			*fr.at(sp - 1) = uf(float64(f32(*fr.at(sp - 1))))
		case wasm.OpI32ReinterpretF32, wasm.OpI64ReinterpretF64,
			wasm.OpF32ReinterpretI32, wasm.OpF64ReinterpretI64:
			// bit patterns are already shared
		case wasm.OpI32Extend8S:
			*fr.at(sp - 1) = uint64(uint32(int32(int8(*fr.at(sp - 1)))))
		case wasm.OpI32Extend16S:
			*fr.at(sp - 1) = uint64(uint32(int32(int16(*fr.at(sp - 1)))))
		case wasm.OpI64Extend8S:
			*fr.at(sp - 1) = uint64(int64(int8(*fr.at(sp - 1))))
		case wasm.OpI64Extend16S:
			*fr.at(sp - 1) = uint64(int64(int16(*fr.at(sp - 1))))
		// fused operand forms (fold.go)
		case opI32AddI:
			*fr.at(sp - 1) = uint64(uint32(*fr.at(sp - 1)) + uint32(in.A))
		case opI32SubI:
			*fr.at(sp - 1) = uint64(uint32(*fr.at(sp - 1)) - uint32(in.A))
		case opI32MulI:
			*fr.at(sp - 1) = uint64(uint32(*fr.at(sp - 1)) * uint32(in.A))
		case opI32ShlI:
			*fr.at(sp - 1) = uint64(uint32(*fr.at(sp - 1)) << (uint32(in.A) & 31))
		case opI32AndI:
			*fr.at(sp - 1) = uint64(uint32(*fr.at(sp - 1)) & uint32(in.A))
		case opI64AddI:
			*fr.at(sp - 1) += in.A
		case opI64MulI:
			*fr.at(sp - 1) *= in.A
		case opI32AddLI:
			*fr.at(sp) = uint64(uint32(*fr.at(int(in.A))) + uint32(in.B))
			sp++
		case opI32SubLI:
			*fr.at(sp) = uint64(uint32(*fr.at(int(in.A))) - uint32(in.B))
			sp++
		case opI32MulLI:
			*fr.at(sp) = uint64(uint32(*fr.at(int(in.A))) * uint32(in.B))
			sp++
		case opI32ShlLI:
			*fr.at(sp) = uint64(uint32(*fr.at(int(in.A))) << (uint32(in.B) & 31))
			sp++
		case opI32AndLI:
			*fr.at(sp) = uint64(uint32(*fr.at(int(in.A))) & uint32(in.B))
			sp++
		case opI64AddLI:
			*fr.at(sp) = *fr.at(int(in.A)) + in.B
			sp++
		case opI64MulLI:
			*fr.at(sp) = *fr.at(int(in.A)) * in.B
			sp++
		case opI32AddL:
			*fr.at(sp - 1) = uint64(uint32(*fr.at(sp - 1)) + uint32(*fr.at(int(in.A))))
		case opI64AddL:
			*fr.at(sp - 1) += *fr.at(int(in.A))
		case opI32AddToL:
			sp -= 2
			*fr.at(int(in.A)) = uint64(uint32(*fr.at(sp)) + uint32(*fr.at(sp + 1)))
		case opI64AddToL:
			sp -= 2
			*fr.at(int(in.A)) = *fr.at(sp) + *fr.at(sp + 1)
		case opI32IncL:
			l := fr.at(int(in.A))
			*l = uint64(uint32(*l) + uint32(in.B))
		case opI64IncL:
			*fr.at(int(in.A)) += in.B
		case opGetGet:
			*fr.at(sp) = *fr.at(int(in.A))
			*fr.at(sp + 1) = *fr.at(int(in.B))
			sp += 2
		case opGetConst:
			*fr.at(sp) = *fr.at(int(in.A))
			*fr.at(sp + 1) = in.B
			sp += 2
		case opSetGet:
			*fr.at(int(in.A)) = *fr.at(sp - 1)
			*fr.at(sp - 1) = *fr.at(int(in.B))
		// fused compare and branch (fold.go)
		case opBrEq:
			sp -= 2
			if uint32(*fr.at(sp)) == uint32(*fr.at(sp + 1)) {
				pc = int(in.Tgt) - 1
			}
		case opBrNe:
			sp -= 2
			if uint32(*fr.at(sp)) != uint32(*fr.at(sp + 1)) {
				pc = int(in.Tgt) - 1
			}
		case opBrLtS:
			sp -= 2
			if int32(*fr.at(sp)) < int32(*fr.at(sp + 1)) {
				pc = int(in.Tgt) - 1
			}
		case opBrGeS:
			sp -= 2
			if int32(*fr.at(sp)) >= int32(*fr.at(sp + 1)) {
				pc = int(in.Tgt) - 1
			}
		case opBrLtU:
			sp -= 2
			if uint32(*fr.at(sp)) < uint32(*fr.at(sp + 1)) {
				pc = int(in.Tgt) - 1
			}
		case opBrGeU:
			sp -= 2
			if uint32(*fr.at(sp)) >= uint32(*fr.at(sp + 1)) {
				pc = int(in.Tgt) - 1
			}
		case opBrEqI:
			sp--
			if uint32(*fr.at(sp)) == uint32(in.A) {
				pc = int(in.Tgt) - 1
			}
		case opBrNeI:
			sp--
			if uint32(*fr.at(sp)) != uint32(in.A) {
				pc = int(in.Tgt) - 1
			}
		case opBrLtSI:
			sp--
			if int32(*fr.at(sp)) < int32(in.A) {
				pc = int(in.Tgt) - 1
			}
		case opBrGeSI:
			sp--
			if int32(*fr.at(sp)) >= int32(in.A) {
				pc = int(in.Tgt) - 1
			}
		case opBrLtUI:
			sp--
			if uint32(*fr.at(sp)) < uint32(in.A) {
				pc = int(in.Tgt) - 1
			}
		case opBrGeUI:
			sp--
			if uint32(*fr.at(sp)) >= uint32(in.A) {
				pc = int(in.Tgt) - 1
			}
		case opBrEqLI:
			if uint32(*fr.at(int(in.A))) == uint32(in.B) {
				pc = int(in.Tgt) - 1
			}
		case opBrNeLI:
			if uint32(*fr.at(int(in.A))) != uint32(in.B) {
				pc = int(in.Tgt) - 1
			}
		case opBrLtSLI:
			if int32(*fr.at(int(in.A))) < int32(in.B) {
				pc = int(in.Tgt) - 1
			}
		case opBrGeSLI:
			if int32(*fr.at(int(in.A))) >= int32(in.B) {
				pc = int(in.Tgt) - 1
			}
		case opBrLtULI:
			if uint32(*fr.at(int(in.A))) < uint32(in.B) {
				pc = int(in.Tgt) - 1
			}
		case opBrGeULI:
			if uint32(*fr.at(int(in.A))) >= uint32(in.B) {
				pc = int(in.Tgt) - 1
			}
		case opBrEqLL:
			if uint32(*fr.at(int(in.A))) == uint32(*fr.at(int(in.B))) {
				pc = int(in.Tgt) - 1
			}
		case opBrNeLL:
			if uint32(*fr.at(int(in.A))) != uint32(*fr.at(int(in.B))) {
				pc = int(in.Tgt) - 1
			}
		case opBrLtSLL:
			if int32(*fr.at(int(in.A))) < int32(*fr.at(int(in.B))) {
				pc = int(in.Tgt) - 1
			}
		case opBrGeSLL:
			if int32(*fr.at(int(in.A))) >= int32(*fr.at(int(in.B))) {
				pc = int(in.Tgt) - 1
			}
		case opBrLtULL:
			if uint32(*fr.at(int(in.A))) < uint32(*fr.at(int(in.B))) {
				pc = int(in.Tgt) - 1
			}
		case opBrGeULL:
			if uint32(*fr.at(int(in.A))) >= uint32(*fr.at(int(in.B))) {
				pc = int(in.Tgt) - 1
			}
		default:
			trap.Throwf(trap.HostError, "unimplemented opcode %v", in.Op)
		}
	}
}

// execPrefix runs the 0xFC-prefixed ops, exec's one cold arm.
func (inst *Instance) execPrefix(in *flatten.Instr, fr frame, sp int) int {
	memory := inst.base.Mem
	switch wasm.SubOpcode(in.Sub) {
	case wasm.SubMemoryCopy:
		sp -= 3
		memory.Copy(uint64(uint32(*fr.at(sp))), uint64(uint32(*fr.at(sp + 1))), uint64(uint32(*fr.at(sp + 2))))
	case wasm.SubMemoryFill:
		sp -= 3
		memory.Fill(uint64(uint32(*fr.at(sp))), uint64(*fr.at(sp + 1)&0xff), uint64(uint32(*fr.at(sp + 2))))
	case wasm.SubI32TruncSatF32S:
		*fr.at(sp - 1) = uint64(uint32(numeric.TruncSatF32ToI32(math.Float32frombits(uint32(*fr.at(sp - 1))))))
	case wasm.SubI32TruncSatF32U:
		*fr.at(sp - 1) = uint64(numeric.TruncSatF32ToU32(math.Float32frombits(uint32(*fr.at(sp - 1)))))
	case wasm.SubI32TruncSatF64S:
		*fr.at(sp - 1) = uint64(uint32(numeric.TruncSatF64ToI32(math.Float64frombits(*fr.at(sp - 1)))))
	case wasm.SubI32TruncSatF64U:
		*fr.at(sp - 1) = uint64(numeric.TruncSatF64ToU32(math.Float64frombits(*fr.at(sp - 1))))
	case wasm.SubI64TruncSatF32S:
		*fr.at(sp - 1) = uint64(numeric.TruncSatF32ToI64(math.Float32frombits(uint32(*fr.at(sp - 1)))))
	case wasm.SubI64TruncSatF32U:
		*fr.at(sp - 1) = numeric.TruncSatF32ToU64(math.Float32frombits(uint32(*fr.at(sp - 1))))
	case wasm.SubI64TruncSatF64S:
		*fr.at(sp - 1) = uint64(numeric.TruncSatF64ToI64(math.Float64frombits(*fr.at(sp - 1))))
	case wasm.SubI64TruncSatF64U:
		*fr.at(sp - 1) = numeric.TruncSatF64ToU64(math.Float64frombits(*fr.at(sp - 1)))
	default:
		trap.Throwf(trap.HostError, "unsupported prefixed op %v", in.Sub)
	}
	return sp
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func f32(v uint64) float32  { return math.Float32frombits(uint32(v)) }
func f64(v uint64) float64  { return math.Float64frombits(v) }
func u32f(f float32) uint64 { return uint64(math.Float32bits(f)) }
func uf(f float64) uint64   { return math.Float64bits(f) }
