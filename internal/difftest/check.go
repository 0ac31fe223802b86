package difftest

import (
	"fmt"
	"testing"

	"leapsandbounds/internal/core"
	"leapsandbounds/internal/isa"
	"leapsandbounds/internal/mem"
	"leapsandbounds/internal/trap"
	"leapsandbounds/internal/wasm"
)

// An Engine is a named engine constructor. New may register the
// engine's release on tb.Cleanup.
type Engine struct {
	Name string
	New  func(tb testing.TB) core.Engine
}

// A Rule is what a row's strategies must keep across one another.
type Rule struct {
	kind rule
	want Outcome
}

type rule uint8

const (
	same rule = iota
	partition
	fixed
)

var (
	// Same: every strategy gives one Outcome.
	Same = Rule{kind: same}
	// Partition is the paper's semantics for a program that may
	// access memory out of bounds: trap, mprotect and uffd give one
	// Outcome, whose trap, if any, is an out-of-bounds one; clamp and
	// none never trap; and when the vm group did not trap, all five
	// give one Outcome.
	Partition = Rule{kind: partition}
)

// Fixed is the rule that every strategy gives want.
func Fixed(want Outcome) Rule { return Rule{kind: fixed, want: want} }

// A Row is one module, the calls made on it, the engines it runs on
// and the rule its strategies keep.
type Row struct {
	Module *wasm.Module
	// Calls are made in order on one instance; nil is run().
	Calls []Call
	// Env gives each instance its host side; nil is no imports.
	Env     func() Env
	Engines []Engine
	Rule    Rule
	// Strategies defaults to mem.Strategies(); Same and Fixed rows
	// may name fewer.
	Strategies []mem.Strategy
}

// Check compiles r.Module on each engine, cache-detached, and runs it
// on every engine × strategy × {fresh, template fork} × {plain,
// CountCycles}. Within a strategy every cell must give the first
// cell's Outcome, and r.Rule must hold across strategies. A failure
// names the engine, strategy and axes of the cell. Check returns each
// strategy's Outcome for the caller's own assertions.
func Check(tb testing.TB, r Row) map[mem.Strategy]Outcome {
	tb.Helper()
	if r.Calls == nil {
		r.Calls = []Call{runCall}
	}
	if r.Strategies == nil {
		r.Strategies = mem.Strategies()
	}
	mods := make([]core.CompiledModule, len(r.Engines))
	for i, e := range r.Engines {
		eng := e.New(tb)
		eng.SetCache(nil)
		cm, err := eng.Compile(r.Module)
		if err != nil {
			tb.Fatalf("%s: compile: %v", e.Name, err)
		}
		mods[i] = cm
	}
	outs := make(map[mem.Strategy]Outcome, len(r.Strategies))
	for _, s := range r.Strategies {
		var ref Outcome
		var refLabel string
		for i, cm := range mods {
			for _, inst := range []string{"fresh", "fork"} {
				for _, run := range []string{"plain", "counted"} {
					label := fmt.Sprintf("%s/%v/%s/%s", r.Engines[i].Name, s, inst, run)
					cfg := core.Config{Profile: isa.X86_64(), Strategy: s, CountCycles: run == "counted"}
					got := r.cell(tb, cm, cfg, inst == "fork", label)
					if refLabel == "" {
						ref, refLabel = got, label
					} else if got != ref {
						tb.Errorf("%s: %v\n%s: %v", label, got, refLabel, ref)
					}
				}
			}
		}
		outs[s] = ref
	}
	r.Rule.check(tb, r.Strategies, outs)
	return outs
}

// cell runs r's calls on one instance of cm under cfg, a template
// fork's when fork is set, and adds the Env's file image.
func (r *Row) cell(tb testing.TB, cm core.CompiledModule, cfg core.Config, fork bool, label string) Outcome {
	tb.Helper()
	var env Env
	if r.Env != nil {
		env = r.Env()
	}
	var inst core.Instance
	var err error
	if fork {
		var tpl *core.Template
		if tpl, err = core.NewTemplate(cm, cfg, env.Imports, nil); err == nil {
			inst, err = tpl.Fork()
		}
	} else {
		inst, err = cm.Instantiate(cfg, env.Imports)
	}
	if err != nil {
		tb.Fatalf("%s: instantiate: %v", label, err)
	}
	o := Run(tb, inst, label, r.Calls...)
	inst.Close()
	if env.File != nil {
		if f := env.File(); f != nil {
			o.FileHash = Hash(f)
		}
	}
	return o
}

// check applies the rule to each strategy's Outcome.
func (r Rule) check(tb testing.TB, strategies []mem.Strategy, outs map[mem.Strategy]Outcome) {
	tb.Helper()
	switch r.kind {
	case same:
		for _, s := range strategies[1:] {
			if outs[s] != outs[strategies[0]] {
				tb.Errorf("%v: %v, %v: %v", s, outs[s], strategies[0], outs[strategies[0]])
			}
		}
	case partition:
		vm := outs[mem.Trap]
		for _, s := range []mem.Strategy{mem.Mprotect, mem.Uffd} {
			if outs[s] != vm {
				tb.Errorf("%v: %v differs from trap: %v", s, outs[s], vm)
			}
		}
		if vm.Trapped && vm.Kind != trap.OutOfBounds {
			tb.Errorf("the vm group trapped with %v, not out of bounds", vm.Kind)
		}
		for _, s := range []mem.Strategy{mem.Clamp, mem.None} {
			switch {
			case outs[s].Trapped:
				tb.Errorf("%v trapped (%v); it must never trap on this program", s, outs[s])
			case !vm.Trapped && outs[s] != vm:
				tb.Errorf("no out-of-bounds access, yet %v: %v, trap: %v", s, outs[s], vm)
			}
		}
	case fixed:
		for _, s := range strategies {
			if outs[s] != r.want {
				tb.Errorf("%v: %v, want %v", s, outs[s], r.want)
			}
		}
	}
}
