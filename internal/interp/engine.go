package interp

import (
	"fmt"
	"math"
	"math/bits"

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

// Codegen implements core.Engine: the interpreter generates no code,
// so it has no knobs to report and ignores SetCodegen.
func (e *Engine) Codegen() core.Codegen { return core.Codegen{} }

// SetCodegen implements core.Engine as a no-op.
func (e *Engine) SetCodegen(core.Codegen) {}

// Name implements core.Engine.
func (e *Engine) Name() string { return e.name }

// Module is the interpreter's compiled form.
type Module struct {
	engine *Engine
	wasm   *wasm.Module
	funcs  []*flatten.Func // module-defined functions, in code order
	// imported is wasm.NumImportedFuncs(), counted once: every guest
	// call splits the function space on it.
	imported uint32
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
	funcs, i, err := fanout.Map(len(m.Code), func(i int) (*flatten.Func, error) {
		return flatten.Flatten(m, imported+uint32(i), &m.Code[i])
	})
	if err != nil {
		return nil, fmt.Errorf("interp: function %d: %w", i, err)
	}
	return &Module{engine: e, wasm: m, funcs: funcs, imported: imported}, nil
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
// instances.
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
		stack: make([]uint64, 4096),
		count: cfg.CountCycles,
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
	stack []uint64
	count bool
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
	pf := inst.mod.funcs[idx-imported]
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
// already placed at stack[argBase:]; results end up at argBase.
func (inst *Instance) call(fi uint32, argBase int) {
	imported := inst.mod.imported
	if fi < imported {
		inst.base.CallImport(fi, inst.stack, argBase)
		return
	}
	pf := inst.mod.funcs[fi-imported]
	inst.base.EnterCall()
	inst.ensureStack(argBase, pf)
	for i := argBase + pf.NumParams; i < argBase+pf.NumLocals; i++ {
		inst.stack[i] = 0
	}
	inst.exec(pf, argBase)
	inst.base.LeaveCall()
}

// exec runs a pre-decoded function with its locals at stack[base:].
// The operand stack occupies stack[base+numLocals:]. On return, the
// function's results (if any) are at stack[base:].
func (inst *Instance) exec(pf *flatten.Func, base int) {
	code := pf.Code
	locals := base
	opBase := base + pf.NumLocals
	sp := opBase // next free slot
	memory := inst.base.Mem
	counting := inst.count
	counts := &inst.base.CycleCounts
	ckClass, ckOn := inst.base.CheckClass()
	cell := inst.base.ProfCell
	fnIndex := pf.Index

	for pc := 0; ; pc++ {
		in := &code[pc]
		if counting {
			counts[in.Class]++
			counts[isa.ClassDispatch]++
			if ckOn && (in.Class == isa.ClassLoad || in.Class == isa.ClassStore) {
				counts[ckClass]++
			}
		}
		if cell != nil {
			var fl uint8
			if ckOn && (in.Class == isa.ClassLoad || in.Class == isa.ClassStore) {
				fl = prof.FlagChecked
			}
			cell.Set(fnIndex, in.Class, fl)
		}
		switch in.Op {
		case flatten.OpJump:
			sp = inst.unwind(opBase, sp, in.PopTo, in.Arity)
			pc = int(in.Tgt) - 1
		case flatten.OpIfFalse:
			sp--
			if uint32(inst.stack[sp]) == 0 {
				pc = int(in.Tgt) - 1
			}
		case flatten.OpBranchIf:
			sp--
			if uint32(inst.stack[sp]) != 0 {
				sp = inst.unwind(opBase, sp, in.PopTo, in.Arity)
				pc = int(in.Tgt) - 1
			}
		case wasm.OpBrTable:
			sp--
			i := int(uint32(inst.stack[sp]))
			if i >= len(in.Table)-1 {
				i = len(in.Table) - 1 // default entry
			}
			bt := in.Table[i]
			sp = inst.unwind(opBase, sp, bt.PopTo, bt.Arity)
			pc = int(bt.Tgt) - 1
		case flatten.OpReturnEnd:
			if in.Arity > 0 {
				inst.stack[base] = inst.stack[sp-1]
			}
			return
		case wasm.OpUnreachable:
			trap.Throw(trap.Unreachable)
		case wasm.OpCall:
			argBase := opBase + int(in.PopTo)
			inst.call(uint32(in.A), argBase)
			sp = argBase + int(in.Arity)
		case wasm.OpCallIndirect:
			sp--
			slot := uint32(inst.stack[sp])
			fi := inst.base.ResolveIndirect(slot, uint32(in.A))
			argBase := opBase + int(in.PopTo)
			inst.call(fi, argBase)
			sp = argBase + int(in.Arity)
		case wasm.OpDrop:
			sp--
		case wasm.OpSelect:
			sp -= 2
			if uint32(inst.stack[sp+1]) == 0 {
				inst.stack[sp-1] = inst.stack[sp]
			}
		case wasm.OpLocalGet:
			inst.stack[sp] = inst.stack[locals+int(in.A)]
			sp++
		case wasm.OpLocalSet:
			sp--
			inst.stack[locals+int(in.A)] = inst.stack[sp]
		case wasm.OpLocalTee:
			inst.stack[locals+int(in.A)] = inst.stack[sp-1]
		case wasm.OpGlobalGet:
			inst.stack[sp] = inst.base.Globals[in.A]
			sp++
		case wasm.OpGlobalSet:
			sp--
			inst.base.Globals[in.A] = inst.stack[sp]
		case wasm.OpMemorySize:
			inst.stack[sp] = uint64(memory.SizePages())
			sp++
		case wasm.OpMemoryGrow:
			delta := uint32(inst.stack[sp-1])
			inst.stack[sp-1] = uint64(uint32(memory.Grow(delta)))
		case wasm.OpI32Const, wasm.OpI64Const, wasm.OpF32Const, wasm.OpF64Const:
			inst.stack[sp] = in.A
			sp++
		case wasm.OpPrefix:
			sp = inst.execPrefix(in, sp)
		default:
			if in.Op.IsLoad() {
				addr := uint64(uint32(inst.stack[sp-1])) + in.B
				inst.stack[sp-1] = execLoad(memory, in.Op, addr)
			} else if in.Op.IsStore() {
				sp -= 2
				addr := uint64(uint32(inst.stack[sp])) + in.B
				execStore(memory, in.Op, addr, inst.stack[sp+1])
			} else {
				sp = execNumeric(inst.stack, sp, in.Op)
			}
		}
	}
}

// unwind moves arity carried values down to popTo and returns the
// new stack pointer.
func (inst *Instance) unwind(opBase, sp int, popTo int32, arity int8) int {
	dst := opBase + int(popTo)
	if arity > 0 {
		inst.stack[dst] = inst.stack[sp-1]
		return dst + 1
	}
	return dst
}

func (inst *Instance) execPrefix(in *flatten.Instr, sp int) int {
	memory := inst.base.Mem
	s := inst.stack
	switch in.Sub {
	case wasm.SubMemoryCopy:
		sp -= 3
		memory.Copy(uint64(uint32(s[sp])), uint64(uint32(s[sp+1])), uint64(uint32(s[sp+2])))
	case wasm.SubMemoryFill:
		sp -= 3
		memory.Fill(uint64(uint32(s[sp])), uint64(s[sp+1]&0xff), uint64(uint32(s[sp+2])))
	case wasm.SubI32TruncSatF32S:
		s[sp-1] = uint64(uint32(numeric.TruncSatF32ToI32(math.Float32frombits(uint32(s[sp-1])))))
	case wasm.SubI32TruncSatF32U:
		s[sp-1] = uint64(numeric.TruncSatF32ToU32(math.Float32frombits(uint32(s[sp-1]))))
	case wasm.SubI32TruncSatF64S:
		s[sp-1] = uint64(uint32(numeric.TruncSatF64ToI32(math.Float64frombits(s[sp-1]))))
	case wasm.SubI32TruncSatF64U:
		s[sp-1] = uint64(numeric.TruncSatF64ToU32(math.Float64frombits(s[sp-1])))
	case wasm.SubI64TruncSatF32S:
		s[sp-1] = uint64(numeric.TruncSatF32ToI64(math.Float32frombits(uint32(s[sp-1]))))
	case wasm.SubI64TruncSatF32U:
		s[sp-1] = numeric.TruncSatF32ToU64(math.Float32frombits(uint32(s[sp-1])))
	case wasm.SubI64TruncSatF64S:
		s[sp-1] = uint64(numeric.TruncSatF64ToI64(math.Float64frombits(s[sp-1])))
	case wasm.SubI64TruncSatF64U:
		s[sp-1] = numeric.TruncSatF64ToU64(math.Float64frombits(s[sp-1]))
	default:
		trap.Throwf(trap.HostError, "unsupported prefixed op %v", in.Sub)
	}
	return sp
}

func execLoad(m *mem.Memory, op wasm.Opcode, addr uint64) uint64 {
	switch op {
	case wasm.OpI32Load, wasm.OpF32Load:
		return uint64(m.LoadU32(addr))
	case wasm.OpI64Load, wasm.OpF64Load:
		return m.LoadU64(addr)
	case wasm.OpI32Load8S:
		return uint64(uint32(int32(int8(m.LoadU8(addr)))))
	case wasm.OpI32Load8U:
		return uint64(m.LoadU8(addr))
	case wasm.OpI32Load16S:
		return uint64(uint32(int32(int16(m.LoadU16(addr)))))
	case wasm.OpI32Load16U:
		return uint64(m.LoadU16(addr))
	case wasm.OpI64Load8S:
		return uint64(int64(int8(m.LoadU8(addr))))
	case wasm.OpI64Load8U:
		return uint64(m.LoadU8(addr))
	case wasm.OpI64Load16S:
		return uint64(int64(int16(m.LoadU16(addr))))
	case wasm.OpI64Load16U:
		return uint64(m.LoadU16(addr))
	case wasm.OpI64Load32S:
		return uint64(int64(int32(m.LoadU32(addr))))
	case wasm.OpI64Load32U:
		return uint64(m.LoadU32(addr))
	default:
		trap.Throwf(trap.HostError, "bad load opcode %v", op)
		return 0
	}
}

func execStore(m *mem.Memory, op wasm.Opcode, addr uint64, v uint64) {
	switch op {
	case wasm.OpI32Store, wasm.OpF32Store:
		m.StoreU32(addr, uint32(v))
	case wasm.OpI64Store, wasm.OpF64Store:
		m.StoreU64(addr, v)
	case wasm.OpI32Store8, wasm.OpI64Store8:
		m.StoreU8(addr, byte(v))
	case wasm.OpI32Store16, wasm.OpI64Store16:
		m.StoreU16(addr, uint16(v))
	case wasm.OpI64Store32:
		m.StoreU32(addr, uint32(v))
	default:
		trap.Throwf(trap.HostError, "bad store opcode %v", op)
	}
}

// execNumeric executes a pure numeric opcode on the operand stack
// and returns the new stack pointer.
func execNumeric(s []uint64, sp int, op wasm.Opcode) int {
	switch op {
	// i32 comparisons
	case wasm.OpI32Eqz:
		s[sp-1] = b2u(uint32(s[sp-1]) == 0)
	case wasm.OpI32Eq:
		sp--
		s[sp-1] = b2u(uint32(s[sp-1]) == uint32(s[sp]))
	case wasm.OpI32Ne:
		sp--
		s[sp-1] = b2u(uint32(s[sp-1]) != uint32(s[sp]))
	case wasm.OpI32LtS:
		sp--
		s[sp-1] = b2u(int32(s[sp-1]) < int32(s[sp]))
	case wasm.OpI32LtU:
		sp--
		s[sp-1] = b2u(uint32(s[sp-1]) < uint32(s[sp]))
	case wasm.OpI32GtS:
		sp--
		s[sp-1] = b2u(int32(s[sp-1]) > int32(s[sp]))
	case wasm.OpI32GtU:
		sp--
		s[sp-1] = b2u(uint32(s[sp-1]) > uint32(s[sp]))
	case wasm.OpI32LeS:
		sp--
		s[sp-1] = b2u(int32(s[sp-1]) <= int32(s[sp]))
	case wasm.OpI32LeU:
		sp--
		s[sp-1] = b2u(uint32(s[sp-1]) <= uint32(s[sp]))
	case wasm.OpI32GeS:
		sp--
		s[sp-1] = b2u(int32(s[sp-1]) >= int32(s[sp]))
	case wasm.OpI32GeU:
		sp--
		s[sp-1] = b2u(uint32(s[sp-1]) >= uint32(s[sp]))
	// i64 comparisons
	case wasm.OpI64Eqz:
		s[sp-1] = b2u(s[sp-1] == 0)
	case wasm.OpI64Eq:
		sp--
		s[sp-1] = b2u(s[sp-1] == s[sp])
	case wasm.OpI64Ne:
		sp--
		s[sp-1] = b2u(s[sp-1] != s[sp])
	case wasm.OpI64LtS:
		sp--
		s[sp-1] = b2u(int64(s[sp-1]) < int64(s[sp]))
	case wasm.OpI64LtU:
		sp--
		s[sp-1] = b2u(s[sp-1] < s[sp])
	case wasm.OpI64GtS:
		sp--
		s[sp-1] = b2u(int64(s[sp-1]) > int64(s[sp]))
	case wasm.OpI64GtU:
		sp--
		s[sp-1] = b2u(s[sp-1] > s[sp])
	case wasm.OpI64LeS:
		sp--
		s[sp-1] = b2u(int64(s[sp-1]) <= int64(s[sp]))
	case wasm.OpI64LeU:
		sp--
		s[sp-1] = b2u(s[sp-1] <= s[sp])
	case wasm.OpI64GeS:
		sp--
		s[sp-1] = b2u(int64(s[sp-1]) >= int64(s[sp]))
	case wasm.OpI64GeU:
		sp--
		s[sp-1] = b2u(s[sp-1] >= s[sp])
	// f32 comparisons
	case wasm.OpF32Eq:
		sp--
		s[sp-1] = b2u(f32(s[sp-1]) == f32(s[sp]))
	case wasm.OpF32Ne:
		sp--
		s[sp-1] = b2u(f32(s[sp-1]) != f32(s[sp]))
	case wasm.OpF32Lt:
		sp--
		s[sp-1] = b2u(f32(s[sp-1]) < f32(s[sp]))
	case wasm.OpF32Gt:
		sp--
		s[sp-1] = b2u(f32(s[sp-1]) > f32(s[sp]))
	case wasm.OpF32Le:
		sp--
		s[sp-1] = b2u(f32(s[sp-1]) <= f32(s[sp]))
	case wasm.OpF32Ge:
		sp--
		s[sp-1] = b2u(f32(s[sp-1]) >= f32(s[sp]))
	// f64 comparisons
	case wasm.OpF64Eq:
		sp--
		s[sp-1] = b2u(f64(s[sp-1]) == f64(s[sp]))
	case wasm.OpF64Ne:
		sp--
		s[sp-1] = b2u(f64(s[sp-1]) != f64(s[sp]))
	case wasm.OpF64Lt:
		sp--
		s[sp-1] = b2u(f64(s[sp-1]) < f64(s[sp]))
	case wasm.OpF64Gt:
		sp--
		s[sp-1] = b2u(f64(s[sp-1]) > f64(s[sp]))
	case wasm.OpF64Le:
		sp--
		s[sp-1] = b2u(f64(s[sp-1]) <= f64(s[sp]))
	case wasm.OpF64Ge:
		sp--
		s[sp-1] = b2u(f64(s[sp-1]) >= f64(s[sp]))
	// i32 arithmetic
	case wasm.OpI32Clz:
		s[sp-1] = uint64(bits.LeadingZeros32(uint32(s[sp-1])))
	case wasm.OpI32Ctz:
		s[sp-1] = uint64(bits.TrailingZeros32(uint32(s[sp-1])))
	case wasm.OpI32Popcnt:
		s[sp-1] = uint64(bits.OnesCount32(uint32(s[sp-1])))
	case wasm.OpI32Add:
		sp--
		s[sp-1] = uint64(uint32(s[sp-1]) + uint32(s[sp]))
	case wasm.OpI32Sub:
		sp--
		s[sp-1] = uint64(uint32(s[sp-1]) - uint32(s[sp]))
	case wasm.OpI32Mul:
		sp--
		s[sp-1] = uint64(uint32(s[sp-1]) * uint32(s[sp]))
	case wasm.OpI32DivS:
		sp--
		s[sp-1] = uint64(uint32(numeric.DivS32(int32(s[sp-1]), int32(s[sp]))))
	case wasm.OpI32DivU:
		sp--
		s[sp-1] = uint64(numeric.DivU32(uint32(s[sp-1]), uint32(s[sp])))
	case wasm.OpI32RemS:
		sp--
		s[sp-1] = uint64(uint32(numeric.RemS32(int32(s[sp-1]), int32(s[sp]))))
	case wasm.OpI32RemU:
		sp--
		s[sp-1] = uint64(numeric.RemU32(uint32(s[sp-1]), uint32(s[sp])))
	case wasm.OpI32And:
		sp--
		s[sp-1] = uint64(uint32(s[sp-1]) & uint32(s[sp]))
	case wasm.OpI32Or:
		sp--
		s[sp-1] = uint64(uint32(s[sp-1]) | uint32(s[sp]))
	case wasm.OpI32Xor:
		sp--
		s[sp-1] = uint64(uint32(s[sp-1]) ^ uint32(s[sp]))
	case wasm.OpI32Shl:
		sp--
		s[sp-1] = uint64(uint32(s[sp-1]) << (uint32(s[sp]) & 31))
	case wasm.OpI32ShrS:
		sp--
		s[sp-1] = uint64(uint32(int32(s[sp-1]) >> (uint32(s[sp]) & 31)))
	case wasm.OpI32ShrU:
		sp--
		s[sp-1] = uint64(uint32(s[sp-1]) >> (uint32(s[sp]) & 31))
	case wasm.OpI32Rotl:
		sp--
		s[sp-1] = uint64(bits.RotateLeft32(uint32(s[sp-1]), int(uint32(s[sp])&31)))
	case wasm.OpI32Rotr:
		sp--
		s[sp-1] = uint64(bits.RotateLeft32(uint32(s[sp-1]), -int(uint32(s[sp])&31)))
	// i64 arithmetic
	case wasm.OpI64Clz:
		s[sp-1] = uint64(bits.LeadingZeros64(s[sp-1]))
	case wasm.OpI64Ctz:
		s[sp-1] = uint64(bits.TrailingZeros64(s[sp-1]))
	case wasm.OpI64Popcnt:
		s[sp-1] = uint64(bits.OnesCount64(s[sp-1]))
	case wasm.OpI64Add:
		sp--
		s[sp-1] += s[sp]
	case wasm.OpI64Sub:
		sp--
		s[sp-1] -= s[sp]
	case wasm.OpI64Mul:
		sp--
		s[sp-1] *= s[sp]
	case wasm.OpI64DivS:
		sp--
		s[sp-1] = uint64(numeric.DivS64(int64(s[sp-1]), int64(s[sp])))
	case wasm.OpI64DivU:
		sp--
		s[sp-1] = numeric.DivU64(s[sp-1], s[sp])
	case wasm.OpI64RemS:
		sp--
		s[sp-1] = uint64(numeric.RemS64(int64(s[sp-1]), int64(s[sp])))
	case wasm.OpI64RemU:
		sp--
		s[sp-1] = numeric.RemU64(s[sp-1], s[sp])
	case wasm.OpI64And:
		sp--
		s[sp-1] &= s[sp]
	case wasm.OpI64Or:
		sp--
		s[sp-1] |= s[sp]
	case wasm.OpI64Xor:
		sp--
		s[sp-1] ^= s[sp]
	case wasm.OpI64Shl:
		sp--
		s[sp-1] <<= s[sp] & 63
	case wasm.OpI64ShrS:
		sp--
		s[sp-1] = uint64(int64(s[sp-1]) >> (s[sp] & 63))
	case wasm.OpI64ShrU:
		sp--
		s[sp-1] >>= s[sp] & 63
	case wasm.OpI64Rotl:
		sp--
		s[sp-1] = bits.RotateLeft64(s[sp-1], int(s[sp]&63))
	case wasm.OpI64Rotr:
		sp--
		s[sp-1] = bits.RotateLeft64(s[sp-1], -int(s[sp]&63))
	// f32 arithmetic
	case wasm.OpF32Abs:
		s[sp-1] = u32f(float32(math.Abs(float64(f32(s[sp-1])))))
	case wasm.OpF32Neg:
		s[sp-1] = u32f(-f32(s[sp-1]))
	case wasm.OpF32Ceil:
		s[sp-1] = u32f(float32(math.Ceil(float64(f32(s[sp-1])))))
	case wasm.OpF32Floor:
		s[sp-1] = u32f(float32(math.Floor(float64(f32(s[sp-1])))))
	case wasm.OpF32Trunc:
		s[sp-1] = u32f(float32(math.Trunc(float64(f32(s[sp-1])))))
	case wasm.OpF32Nearest:
		s[sp-1] = u32f(numeric.Nearest32(f32(s[sp-1])))
	case wasm.OpF32Sqrt:
		s[sp-1] = u32f(float32(math.Sqrt(float64(f32(s[sp-1])))))
	case wasm.OpF32Add:
		sp--
		s[sp-1] = u32f(f32(s[sp-1]) + f32(s[sp]))
	case wasm.OpF32Sub:
		sp--
		s[sp-1] = u32f(f32(s[sp-1]) - f32(s[sp]))
	case wasm.OpF32Mul:
		sp--
		s[sp-1] = u32f(f32(s[sp-1]) * f32(s[sp]))
	case wasm.OpF32Div:
		sp--
		s[sp-1] = u32f(f32(s[sp-1]) / f32(s[sp]))
	case wasm.OpF32Min:
		sp--
		s[sp-1] = u32f(numeric.Fmin32(f32(s[sp-1]), f32(s[sp])))
	case wasm.OpF32Max:
		sp--
		s[sp-1] = u32f(numeric.Fmax32(f32(s[sp-1]), f32(s[sp])))
	case wasm.OpF32Copysign:
		sp--
		s[sp-1] = u32f(float32(math.Copysign(float64(f32(s[sp-1])), float64(f32(s[sp])))))
	// f64 arithmetic
	case wasm.OpF64Abs:
		s[sp-1] = uf(math.Abs(f64(s[sp-1])))
	case wasm.OpF64Neg:
		s[sp-1] = uf(-f64(s[sp-1]))
	case wasm.OpF64Ceil:
		s[sp-1] = uf(math.Ceil(f64(s[sp-1])))
	case wasm.OpF64Floor:
		s[sp-1] = uf(math.Floor(f64(s[sp-1])))
	case wasm.OpF64Trunc:
		s[sp-1] = uf(math.Trunc(f64(s[sp-1])))
	case wasm.OpF64Nearest:
		s[sp-1] = uf(numeric.Nearest(f64(s[sp-1])))
	case wasm.OpF64Sqrt:
		s[sp-1] = uf(math.Sqrt(f64(s[sp-1])))
	case wasm.OpF64Add:
		sp--
		s[sp-1] = uf(f64(s[sp-1]) + f64(s[sp]))
	case wasm.OpF64Sub:
		sp--
		s[sp-1] = uf(f64(s[sp-1]) - f64(s[sp]))
	case wasm.OpF64Mul:
		sp--
		s[sp-1] = uf(f64(s[sp-1]) * f64(s[sp]))
	case wasm.OpF64Div:
		sp--
		s[sp-1] = uf(f64(s[sp-1]) / f64(s[sp]))
	case wasm.OpF64Min:
		sp--
		s[sp-1] = uf(numeric.Fmin(f64(s[sp-1]), f64(s[sp])))
	case wasm.OpF64Max:
		sp--
		s[sp-1] = uf(numeric.Fmax(f64(s[sp-1]), f64(s[sp])))
	case wasm.OpF64Copysign:
		sp--
		s[sp-1] = uf(math.Copysign(f64(s[sp-1]), f64(s[sp])))
	// conversions
	case wasm.OpI32WrapI64:
		s[sp-1] = uint64(uint32(s[sp-1]))
	case wasm.OpI32TruncF32S:
		s[sp-1] = uint64(uint32(numeric.TruncF32ToI32(f32(s[sp-1]))))
	case wasm.OpI32TruncF32U:
		s[sp-1] = uint64(numeric.TruncF32ToU32(f32(s[sp-1])))
	case wasm.OpI32TruncF64S:
		s[sp-1] = uint64(uint32(numeric.TruncF64ToI32(f64(s[sp-1]))))
	case wasm.OpI32TruncF64U:
		s[sp-1] = uint64(numeric.TruncF64ToU32(f64(s[sp-1])))
	case wasm.OpI64ExtendI32S:
		s[sp-1] = uint64(int64(int32(s[sp-1])))
	case wasm.OpI64ExtendI32U:
		s[sp-1] = uint64(uint32(s[sp-1]))
	case wasm.OpI64TruncF32S:
		s[sp-1] = uint64(numeric.TruncF32ToI64(f32(s[sp-1])))
	case wasm.OpI64TruncF32U:
		s[sp-1] = numeric.TruncF32ToU64(f32(s[sp-1]))
	case wasm.OpI64TruncF64S:
		s[sp-1] = uint64(numeric.TruncF64ToI64(f64(s[sp-1])))
	case wasm.OpI64TruncF64U:
		s[sp-1] = numeric.TruncF64ToU64(f64(s[sp-1]))
	case wasm.OpF32ConvertI32S:
		s[sp-1] = u32f(float32(int32(s[sp-1])))
	case wasm.OpF32ConvertI32U:
		s[sp-1] = u32f(float32(uint32(s[sp-1])))
	case wasm.OpF32ConvertI64S:
		s[sp-1] = u32f(float32(int64(s[sp-1])))
	case wasm.OpF32ConvertI64U:
		s[sp-1] = u32f(float32(s[sp-1]))
	case wasm.OpF32DemoteF64:
		s[sp-1] = u32f(float32(f64(s[sp-1])))
	case wasm.OpF64ConvertI32S:
		s[sp-1] = uf(float64(int32(s[sp-1])))
	case wasm.OpF64ConvertI32U:
		s[sp-1] = uf(float64(uint32(s[sp-1])))
	case wasm.OpF64ConvertI64S:
		s[sp-1] = uf(float64(int64(s[sp-1])))
	case wasm.OpF64ConvertI64U:
		s[sp-1] = uf(float64(s[sp-1]))
	case wasm.OpF64PromoteF32:
		s[sp-1] = uf(float64(f32(s[sp-1])))
	case wasm.OpI32ReinterpretF32, wasm.OpI64ReinterpretF64,
		wasm.OpF32ReinterpretI32, wasm.OpF64ReinterpretI64:
		// bit patterns are already shared
	case wasm.OpI32Extend8S:
		s[sp-1] = uint64(uint32(int32(int8(s[sp-1]))))
	case wasm.OpI32Extend16S:
		s[sp-1] = uint64(uint32(int32(int16(s[sp-1]))))
	case wasm.OpI64Extend8S:
		s[sp-1] = uint64(int64(int8(s[sp-1])))
	case wasm.OpI64Extend16S:
		s[sp-1] = uint64(int64(int16(s[sp-1])))
	case wasm.OpI64Extend32S:
		s[sp-1] = uint64(int64(int32(s[sp-1])))
	default:
		trap.Throwf(trap.HostError, "unimplemented opcode %v", op)
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
