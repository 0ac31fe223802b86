// Package leaps is the public API of the "Leaps and Bounds"
// reproduction: a WebAssembly runtime laboratory for studying
// bounds-checking strategies, modelled on Szewczyk et al., "Leaps
// and bounds: Analyzing WebAssembly's performance with a focus on
// bounds checking" (IISWC 2022).
//
// The package exposes:
//
//   - four WebAssembly engines modelling the paper's runtimes
//     (WAVM, Wasmtime, V8-TurboFan and Wasm3 analogs), all built on
//     a from-scratch decoder, validator and execution substrate;
//   - the paper's five bounds-checking strategies (none, clamp,
//     trap, mprotect, uffd) over a simulated Linux virtual-memory
//     subsystem with a real process-wide mmap lock and a lock-free
//     userfaultfd path;
//   - three hardware profiles (x86-64 Xeon, Armv8 ThunderX2,
//     RISC-V C906) parameterizing the simulated machine;
//   - the paper's workloads (PolyBench/C plus six SPEC CPU 2017
//     analogs), its benchmarking harness, and regeneration of every
//     figure in the evaluation.
//
// Quick start:
//
//	eng, closeEng, _ := leaps.NewEngine(leaps.EngineWAVM)
//	defer closeEng()
//	cm, _ := eng.Compile(module)
//	inst, _ := cm.Instantiate(leaps.Config{
//		Strategy: leaps.Uffd,
//		Profile:  leaps.ProfileX86(),
//	}, nil)
//	defer inst.Close()
//	res, _ := inst.Invoke("run")
package leaps

import (
	"io"

	"leapsandbounds/internal/core"
	"leapsandbounds/internal/harness"
	"leapsandbounds/internal/isa"
	"leapsandbounds/internal/mem"
	"leapsandbounds/internal/modcache"
	"leapsandbounds/internal/obs"
	"leapsandbounds/internal/validate"
	"leapsandbounds/internal/vmm"
	"leapsandbounds/internal/wasi"
	"leapsandbounds/internal/wasm"
	"leapsandbounds/internal/workloads"
)

// Strategy selects a bounds-checking mechanism (paper §3.1).
type Strategy = mem.Strategy

// The five bounds-checking strategies.
const (
	None     = mem.None
	Clamp    = mem.Clamp
	Trap     = mem.Trap
	Mprotect = mem.Mprotect
	Uffd     = mem.Uffd
)

// Strategies lists all strategies in the paper's order.
func Strategies() []Strategy { return mem.Strategies() }

// ParseStrategy resolves a strategy name ("none", "clamp", "trap",
// "mprotect", "uffd").
func ParseStrategy(name string) (Strategy, error) { return mem.ParseStrategy(name) }

// Profile is a simulated hardware configuration (paper §3.4).
type Profile = isa.Profile

// ProfileX86 returns the Intel Xeon Gold 6230R profile.
func ProfileX86() *Profile { return isa.X86_64() }

// Profiles returns all three hardware profiles in paper order: the
// Xeon, the Cavium ThunderX2 (aarch64), the XuanTie C906 (riscv64).
func Profiles() []*Profile { return isa.Profiles() }

// Engine compiles WebAssembly modules; see NewEngine.
type Engine = core.Engine

// CompiledModule is a compiled, instantiable module.
type CompiledModule = core.CompiledModule

// Instance is one running isolate.
type Instance = core.Instance

// Config selects strategy, hardware profile and accounting for
// instantiation.
type Config = core.Config

// Imports supplies host functions to Instantiate.
type Imports = core.Imports

// HostFunc is an embedder-provided function.
type HostFunc = core.HostFunc

// HostContext is passed to host functions.
type HostContext = core.HostContext

// Template is a warmed, frozen instance that serves copy-on-write
// forks — the serverless fleet's standing image of one function. See
// NewTemplate.
type Template = core.Template

// StateSnapshot is the frozen state a Template serves forks from.
type StateSnapshot = core.StateSnapshot

// NewTemplate instantiates cm once, runs warm on the donor (nil to
// snapshot the freshly-instantiated state), freezes its full state —
// linear memory, globals, table — and closes the donor. Template.Fork
// then mints instances from the frozen image via copy-on-write
// mappings: no recompile (the compiled artifact is shared), no
// re-init, page duplication deferred to first write. Every engine
// snapshots and restores (it is part of the CompiledModule and
// Instance contract), and a fork retries injected transient faults
// exactly as a fresh instantiation does.
func NewTemplate(cm CompiledModule, cfg Config, imports Imports, warm func(Instance) error) (*Template, error) {
	return core.NewTemplate(cm, cfg, imports, warm)
}

// Engine names, matching the paper's runtimes.
const (
	EngineNative   = harness.EngineNative
	EngineWAVM     = harness.EngineWAVM
	EngineWasmtime = harness.EngineWasmtime
	EngineV8       = harness.EngineV8
	EngineWasm3    = harness.EngineWasm3
)

// EngineNames lists the runnable engines including the native
// baseline.
func EngineNames() []string { return harness.EngineNames() }

// NewEngine constructs a WebAssembly engine by name. The returned
// close function must be called when the engine is no longer needed
// (the V8 analog owns background workers).
func NewEngine(name string) (Engine, func(), error) { return harness.NewEngine(name) }

// Module is a decoded WebAssembly module.
type Module = wasm.Module

// DecodeModule parses and validates a WebAssembly binary.
func DecodeModule(data []byte) (*Module, error) {
	m, err := wasm.Decode(data)
	if err != nil {
		return nil, err
	}
	if err := validate.Module(m); err != nil {
		return nil, err
	}
	return m, nil
}

// EncodeModule serializes a module back to the binary format.
func EncodeModule(m *Module) ([]byte, error) { return wasm.Encode(m) }

// WASIEnv is the host-side state backing the WASI preview-1 subset.
type WASIEnv = wasi.Env

// NewWASIEnv returns a deterministic WASI environment writing to the
// given stdout and stderr.
func NewWASIEnv(stdout, stderr io.Writer) *WASIEnv { return wasi.NewEnv(stdout, stderr) }

// WASIExitError is returned from Invoke when a guest calls
// proc_exit.
type WASIExitError = wasi.ExitError

// Workload is one benchmark program (wasm module + native twin).
type Workload = workloads.Spec

// Workload size classes.
const (
	SizeTest  = workloads.Test
	SizeBench = workloads.Bench
)

// Workloads returns every benchmark workload (PolyBench + SPEC
// analogs).
func Workloads() []Workload { return workloads.All() }

// WorkloadByName finds a workload (e.g. "gemm", "505.mcf").
func WorkloadByName(name string) (Workload, error) { return workloads.ByName(name) }

// VMStats is a snapshot of the simulated kernel's memory-management
// counters (syscalls, faults, TLB shootdowns, mmap-lock wait).
type VMStats = vmm.StatsSnapshot

// Process models one simulated OS process: the shared address space
// whose mmap lock all isolates contend on, plus the lock-free arena
// pool used by the uffd strategy. Instances created from the same
// Process interact exactly as the paper's same-process isolates do.
type Process struct {
	as      *vmm.AddressSpace
	pool    *mem.ArenaPool
	profile *Profile
}

// NewProcess creates a simulated process on the given hardware
// profile.
func NewProcess(p *Profile) *Process {
	return &Process{
		as:      vmm.New(p.VM),
		pool:    mem.NewArenaPool(),
		profile: p,
	}
}

// Config returns an instantiation config bound to this process.
func (p *Process) Config(s Strategy) Config {
	return Config{Strategy: s, Profile: p.profile, AS: p.as, Pool: p.pool}
}

// VMStats snapshots the process's memory-management counters.
func (p *Process) VMStats() VMStats { return p.as.Snapshot() }

// Close releases pooled arenas.
func (p *Process) Close() { p.pool.Drain() }

// Metrics is a process-wide, allocation-free metrics registry:
// atomic counters, gauges and fixed-bucket latency histograms, plus
// a lock-free bounded ring of causal spans (run, iteration, invoke,
// fault, kernel operations, lock waits) that records once
// EnableTracing(true) is called, each span also summing its time into
// per-kind counters. Pass one registry to BenchOptions.Obs and read
// it back with Snapshot when done.
type Metrics = obs.Registry

// MetricsSnapshot is a point-in-time copy of a Metrics registry.
type MetricsSnapshot = obs.Snapshot

// Histogram is a fixed-bucket latency histogram registered under a
// metrics scope; read percentiles from the registry snapshot's
// HistogramSnapshot.Quantile.
type Histogram = obs.Histogram

// HistogramSnapshot is a point-in-time histogram copy with quantile
// estimation.
type HistogramSnapshot = obs.HistogramSnapshot

// NewMetrics creates an empty metrics registry with the default
// trace-ring capacity.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// BenchOptions configures a harness run.
type BenchOptions = harness.Options

// BenchResult is one harness measurement.
type BenchResult = harness.Result

// RunBenchmark executes one benchmark configuration with the
// paper's warm-up/measure/cool-down protocol.
func RunBenchmark(opts BenchOptions) (*BenchResult, error) { return harness.Run(opts) }

// ModuleCache is the process-wide, content-addressed cache of
// compiled modules. Every engine routes Compile through it by
// default: repeated compiles of the same module (same content hash,
// engine and codegen options) return the cached artifact, and
// concurrent first compiles deduplicate to one. Compiled modules are
// instantiation-independent — strategy, profile and address space
// apply at Instantiate — so one artifact serves every configuration.
type ModuleCache = modcache.Cache

// CacheStats is a snapshot of the module-cache counters.
type CacheStats = modcache.Stats

// CompileCache returns the shared compiled-module cache, for
// inspecting its counters (Stats) or disabling caching process-wide
// with SetEnabled(false).
func CompileCache() *ModuleCache { return modcache.Shared() }
