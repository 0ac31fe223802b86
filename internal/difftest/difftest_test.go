package difftest_test

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"leapsandbounds/internal/core"
	"leapsandbounds/internal/difftest"
	"leapsandbounds/internal/interp"
	"leapsandbounds/internal/mem"
	"leapsandbounds/internal/trap"
	"leapsandbounds/internal/wasm"
	g "leapsandbounds/internal/wasmgen"
)

// A perturbed engine is an engine whose instances, in the cells where
// on holds, have alter change what each call leaves behind.
type perturbed struct {
	core.Engine
	on    func(cfg core.Config, fork bool) bool
	alter func(inst core.Instance, imports core.Imports, res []uint64, err error) ([]uint64, error)
}

func (p perturbed) Compile(m *wasm.Module) (core.CompiledModule, error) {
	cm, err := p.Engine.Compile(m)
	return perturbedModule{cm, p}, err
}

type perturbedModule struct {
	core.CompiledModule
	p perturbed
}

func (m perturbedModule) Instantiate(cfg core.Config, imports core.Imports) (core.Instance, error) {
	return m.InstantiateSnapshot(cfg, imports, nil)
}

func (m perturbedModule) InstantiateSnapshot(cfg core.Config, imports core.Imports, snap *core.StateSnapshot) (core.Instance, error) {
	inst, err := m.CompiledModule.InstantiateSnapshot(cfg, imports, snap)
	if err != nil || !m.p.on(cfg, snap != nil) {
		return inst, err
	}
	return perturbedInstance{inst, imports, m.p.alter}, nil
}

type perturbedInstance struct {
	core.Instance
	imports core.Imports
	alter   func(inst core.Instance, imports core.Imports, res []uint64, err error) ([]uint64, error)
}

func (i perturbedInstance) Invoke(name string, args ...uint64) ([]uint64, error) {
	res, err := i.Instance.Invoke(name, args...)
	return i.alter(i.Instance, i.imports, res, err)
}

// A recorder is a testing.TB that keeps what Check reports.
type recorder struct {
	testing.TB
	reports []string
}

func (r *recorder) Helper() {}

func (r *recorder) Errorf(format string, args ...any) {
	r.reports = append(r.reports, fmt.Sprintf(format, args...))
}

func (r *recorder) Fatalf(format string, args ...any) {
	r.Errorf(format, args...)
	runtime.Goexit()
}

// module returns run(), which writes memory and a file byte and
// returns 99 plus the i64 it loads at at.
func module(t *testing.T, at int32) *wasm.Module {
	mb := g.NewModule()
	appendByte := mb.ImportFunc("test", "append", []wasm.ValueType{wasm.I32}, []wasm.ValueType{wasm.I32})
	mb.Memory(1, 2)
	f := mb.Func("run", wasm.I64)
	f.Body(
		g.StoreI32(g.I32(32), 0, g.I32(42)),
		g.Drop(g.Call(appendByte, g.I32(7))),
		g.Return(g.Add(g.I64(99), g.LoadI64(g.I32(at), 0))),
	)
	mb.Export("run", f)
	m, err := mb.Module()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// env gives each instance a file of its own that test.append extends.
func env() difftest.Env {
	var file []byte
	appendByte := func(_ *core.HostContext, args []uint64) (uint64, error) {
		file = append(file, byte(args[0]))
		return 0, nil
	}
	typ := wasm.FuncType{Params: []wasm.ValueType{wasm.I32}, Results: []wasm.ValueType{wasm.I32}}
	return difftest.Env{
		Imports: core.Imports{"test": {"append": {Type: typ, Fn: appendByte}}},
		File:    func() []byte { return file },
	}
}

// TestCheckCatchesDivergence holds the harness to failing: an engine
// that differs from the interpreter in one thing in one cell must be
// reported, naming that cell, and one that differs nowhere must not.
func TestCheckCatchesDivergence(t *testing.T) {
	plain, oob := module(t, 16), module(t, 65536-4) // oob loads across the end of memory
	cell := func(s mem.Strategy, fork, counted bool) func(core.Config, bool) bool {
		return func(cfg core.Config, f bool) bool {
			return cfg.Strategy == s && f == fork && cfg.CountCycles == counted
		}
	}
	flipResult := func(_ core.Instance, _ core.Imports, res []uint64, err error) ([]uint64, error) {
		if err == nil {
			res[0] ^= 1
		}
		return res, err
	}
	rows := []struct {
		name  string
		m     *wasm.Module
		rule  difftest.Rule
		on    func(core.Config, bool) bool
		alter func(core.Instance, core.Imports, []uint64, error) ([]uint64, error)
		cell  string // "": nothing may be reported
	}{
		{"unperturbed", plain, difftest.Same, func(core.Config, bool) bool { return false }, flipResult, ""},
		{"digest", plain, difftest.Same, cell(mem.Mprotect, false, false), flipResult, "perturbed/mprotect/fresh/plain"},
		{"trap offset", oob, difftest.Partition, cell(mem.Uffd, false, false), func(_ core.Instance, _ core.Imports, res []uint64, err error) ([]uint64, error) {
			if tr := (*trap.Trap)(nil); errors.As(err, &tr) {
				err = &trap.Trap{Kind: tr.Kind, Detail: strings.Replace(tr.Detail, "0xfffc+", "0xfffd+", 1)}
			}
			return res, err
		}, "perturbed/uffd/fresh/plain"},
		{"memory byte", plain, difftest.Same, cell(mem.Trap, false, false), func(inst core.Instance, _ core.Imports, res []uint64, err error) ([]uint64, error) {
			inst.Memory().Bytes(100, 1, true)[0] ^= 1
			return res, err
		}, "perturbed/trap/fresh/plain"},
		{"file byte", plain, difftest.Same, cell(mem.Clamp, false, false), func(_ core.Instance, imports core.Imports, res []uint64, err error) ([]uint64, error) {
			imports["test"]["append"].Fn(nil, []uint64{7})
			return res, err
		}, "perturbed/clamp/fresh/plain"},
		{"fork only", plain, difftest.Same, cell(mem.None, true, false), flipResult, "perturbed/none/fork/plain"},
		{"counted only", plain, difftest.Same, cell(mem.Uffd, false, true), flipResult, "perturbed/uffd/fresh/counted"},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			engines := []difftest.Engine{
				{Name: "interp", New: func(testing.TB) core.Engine { return interp.NewConfigurable() }},
				{Name: "perturbed", New: func(testing.TB) core.Engine {
					return perturbed{interp.NewConfigurable(), r.on, r.alter}
				}},
			}
			rec := &recorder{TB: t}
			done := make(chan struct{})
			go func() {
				defer close(done)
				difftest.Check(rec, difftest.Row{Module: r.m, Env: env, Engines: engines, Rule: r.rule})
			}()
			<-done
			switch {
			case r.cell == "" && len(rec.reports) > 0:
				t.Errorf("reported with nothing perturbed: %q", rec.reports)
			case r.cell != "" && !strings.Contains(strings.Join(rec.reports, "\n"), r.cell):
				t.Errorf("reports %q name no %s", rec.reports, r.cell)
			}
		})
	}
}
