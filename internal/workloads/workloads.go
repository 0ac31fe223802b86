// Package workloads defines the benchmark programs from the paper's
// evaluation (§3.3): the PolyBench/C suite and analogs of the six
// SPEC CPU 2017 Rate benchmarks the authors could compile to WASI
// (505.mcf, 508.namd, 519.lbm, 531.deepsjeng, 544.nab, 557.xz).
//
// Every workload exists twice, generated from the same loop
// structure: as a WebAssembly module authored through the wasmgen
// DSL, and as a native Go function (the paper's native-Clang
// baseline analog). Both compute a checksum over their outputs with
// identical operation order, so results must match bit-for-bit —
// the cross-validation the test suite enforces on every engine and
// bounds-checking strategy.
//
// Problem sizes: the paper uses PolyBench MEDIUM and SPEC Train.
// Those sizes assume native-speed execution; this reproduction also
// runs a threaded interpreter, so the Bench class scales dimensions
// down while preserving each kernel's loop structure, memory-access
// pattern and working-set shape (documented per kernel). The Test
// class is smaller still, for unit tests.
package workloads

import (
	"fmt"
	"reflect"
	"sync"

	"leapsandbounds/internal/validate"
	"leapsandbounds/internal/wasi"
	"leapsandbounds/internal/wasm"
)

// Class selects a problem size.
type Class int

// Size classes.
const (
	// Test sizes make the full engine × strategy matrix fast enough
	// for go test.
	Test Class = iota
	// Bench sizes are the harness defaults (MEDIUM-shaped, scaled).
	Bench
)

// Spec describes one workload.
type Spec struct {
	// Name is the benchmark name as it appears in the paper's
	// figures (e.g. "gemm", "505.mcf").
	Name string
	// Suite is "polybench", "spec" or "wasi".
	Suite string
	// Desc summarizes the kernel.
	Desc string
	// BuildFn constructs the wasm module and the native twin for a
	// size class. Callers should go through Build or BuildChecked,
	// which memoize the (deterministic) construction and validate the
	// module exactly once per (workload, class).
	BuildFn func(c Class) (*wasm.Module, func() uint64)
	// NewEnv, when non-nil, marks a hostcall workload: the module
	// imports wasi_snapshot_preview1, and every isolate must be
	// instantiated with the imports of a fresh environment (the env
	// owns the in-memory filesystem the workload reads and mutates,
	// so reuse across iterations would change checksums). Harness and
	// tests call NewEnv(class).Imports() per instantiation. The file
	// images behind it are built once per class and shared read-only;
	// wasi.NewFS copies them, so each env's files are its own to write
	// and a NewEnv call renders nothing.
	NewEnv func(c Class) *wasi.Env
}

// buildKey identifies one memoized build: the registered builder
// function (by code pointer, so ad-hoc Specs in tests with colliding
// names cannot alias) at one size class.
type buildKey struct {
	fn    uintptr
	class Class
}

// buildEntry holds one memoized build result.
type buildEntry struct {
	once   sync.Once
	module *wasm.Module
	native func() uint64
	err    error
}

var (
	buildsMu sync.Mutex
	builds   = map[buildKey]*buildEntry{}
)

// BuildChecked returns the workload's wasm module and native twin,
// validating the module on first use. Construction and validation run
// exactly once per (workload, class) for the life of the process; the
// returned module is shared, which is safe because nothing mutates a
// built module (the engines treat it as immutable input, and the
// module cache keys off its content hash).
func (s Spec) BuildChecked(c Class) (*wasm.Module, func() uint64, error) {
	k := buildKey{fn: reflect.ValueOf(s.BuildFn).Pointer(), class: c}
	buildsMu.Lock()
	e := builds[k]
	if e == nil {
		e = &buildEntry{}
		builds[k] = e
	}
	buildsMu.Unlock()
	e.once.Do(func() {
		e.module, e.native = s.BuildFn(c)
		if err := validate.Module(e.module); err != nil {
			e.err = fmt.Errorf("workloads: %s/%v: %w", s.Name, c, err)
		}
	})
	return e.module, e.native, e.err
}

// Build is BuildChecked for callers that treat an invalid registered
// workload as a programming error (all registered workloads validate;
// the test suite enforces it).
func (s Spec) Build(c Class) (*wasm.Module, func() uint64) {
	m, native, err := s.BuildChecked(c)
	if err != nil {
		panic(err)
	}
	return m, native
}

// Entry is the exported function every workload module defines; it
// takes no arguments and returns the checksum (f64 or i64 bits).
const Entry = "run"

var (
	registry   []Spec
	registryMu sync.Mutex
)

func register(s Spec) {
	registryMu.Lock()
	defer registryMu.Unlock()
	registry = append(registry, s)
}

// All returns every workload, PolyBench first, in registration order.
func All() []Spec {
	registryMu.Lock()
	defer registryMu.Unlock()
	out := make([]Spec, len(registry))
	copy(out, registry)
	return out
}

// Suite returns the workloads of one suite.
func Suite(name string) []Spec {
	var out []Spec
	for _, s := range All() {
		if s.Suite == name {
			out = append(out, s)
		}
	}
	return out
}

// ByName finds a workload.
func ByName(name string) (Spec, error) {
	for _, s := range All() {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("workloads: unknown workload %q", name)
}

// pick returns t for Test and b for Bench.
func pick(c Class, t, b int32) int32 {
	if c == Test {
		return t
	}
	return b
}
