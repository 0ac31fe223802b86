package core_test

import (
	"errors"
	"testing"
	"time"

	"leapsandbounds/gen"
	"leapsandbounds/internal/compiled"
	"leapsandbounds/internal/core"
	"leapsandbounds/internal/interp"
	"leapsandbounds/internal/isa"
	"leapsandbounds/internal/mem"
	"leapsandbounds/internal/prof"
	"leapsandbounds/internal/vmm"
	"leapsandbounds/internal/wasm"
)

// templateModule builds a small handler-shaped module: "init" fills a
// working set and sets a global (the warm-up), "get" reads back cell
// i plus the global, "set" writes a cell, "grow"/"size" exercise the
// grow state, all over a 1..8 page memory. salt makes each test's
// module content-distinct so module-cache warm starts never couple
// tests.
func templateModule(t *testing.T, salt int64) *wasm.Module {
	t.Helper()
	mb := gen.NewModule()
	mb.Memory(1, 8)
	g := mb.GlobalI64(0)

	init := mb.Func("init")
	i := init.LocalI32("i")
	init.Body(
		gen.For(i, gen.I32(0), gen.I32(1024),
			gen.StoreI64(gen.Mul(gen.Get(i), gen.I32(8)), 0,
				gen.Mul(gen.I64FromI32(gen.Get(i)), gen.I64(salt))),
		),
		gen.SetG(g, gen.I64(salt)),
	)
	mb.Export("init", init)

	get := mb.Func("get", gen.I64Type)
	p := get.ParamI32("i")
	get.Body(gen.Return(gen.Add(
		gen.LoadI64(gen.Mul(gen.Get(p), gen.I32(8)), 0), gen.GetG(g))))
	mb.Export("get", get)

	set := mb.Func("set")
	si := set.ParamI32("i")
	sv := set.ParamI64("v")
	set.Body(gen.StoreI64(gen.Mul(gen.Get(si), gen.I32(8)), 0, gen.Get(sv)))
	mb.Export("set", set)

	grow := mb.Func("grow", gen.I32Type)
	grow.Body(gen.Return(gen.MemGrow(gen.I32(1))))
	mb.Export("grow", grow)

	size := mb.Func("size", gen.I32Type)
	size.Body(gen.Return(gen.MemSize()))
	mb.Export("size", size)

	m, err := mb.Module()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func warmInit(inst core.Instance) error {
	_, err := inst.Invoke("init")
	return err
}

func TestTemplateForkAllStrategies(t *testing.T) {
	const salt = 3
	eng := compiled.NewWAVM()
	for _, s := range mem.Strategies() {
		t.Run(s.String(), func(t *testing.T) {
			cm, err := eng.Compile(templateModule(t, salt))
			if err != nil {
				t.Fatal(err)
			}
			cfg := core.Config{Profile: isa.X86_64(), Strategy: s, AS: vmm.New(isa.X86_64().VM)}
			tpl, err := core.NewTemplate(cm, cfg, nil, warmInit)
			if err != nil {
				t.Fatal(err)
			}
			fork, err := tpl.Fork()
			if err != nil {
				t.Fatal(err)
			}
			defer fork.Close()
			// The fork sees the warmed state without running init.
			for _, i := range []uint64{0, 5, 511, 1023} {
				res, err := fork.Invoke("get", i)
				if err != nil {
					t.Fatal(err)
				}
				want := uint64(int64(i)*salt + salt)
				if res[0] != want {
					t.Fatalf("fork get(%d) = %d, want %d", i, res[0], want)
				}
			}
			// A fresh (unwarmed) instance does not.
			fresh, err := cm.Instantiate(cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer fresh.Close()
			if res, _ := fresh.Invoke("get", uint64(5)); res[0] != 0 {
				t.Fatalf("fresh get(5) = %d, want 0", res[0])
			}
			// Sibling forks are isolated.
			fork2, err := tpl.Fork()
			if err != nil {
				t.Fatal(err)
			}
			defer fork2.Close()
			if _, err := fork.Invoke("set", uint64(5), uint64(999)); err != nil {
				t.Fatal(err)
			}
			if res, _ := fork2.Invoke("get", uint64(5)); res[0] != 5*salt+salt {
				t.Fatalf("fork2 saw sibling write: %d", res[0])
			}
		})
	}
}

// TestForkIsSampled: a fork registers with the sampling profiler exactly
// as a fresh instance does. The template is built unprofiled, so every
// sample belongs to the fork.
func TestForkIsSampled(t *testing.T) {
	for _, tc := range []struct {
		eng             core.Engine
		label, strategy string
	}{
		{compiled.NewWAVM(), "wavm", "mprotect"},
		{interp.NewWasm3(), "interp", "trap"}, // wasm3 forces trap checks
	} {
		t.Run(tc.eng.Name(), func(t *testing.T) {
			cm, err := tc.eng.Compile(templateModule(t, 13))
			if err != nil {
				t.Fatal(err)
			}
			cfg := core.Config{Profile: isa.X86_64(), Strategy: mem.Mprotect}
			tpl, err := core.NewTemplate(cm, cfg, nil, warmInit)
			if err != nil {
				t.Fatal(err)
			}
			p := prof.New(4001)
			p.Start()
			defer p.Stop()
			cfg.Prof = p
			fork, err := tpl.ForkWith(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer fork.Close()
			var snap prof.Profile
			for deadline := time.Now().Add(2 * time.Second); snap.Samples == 0 && time.Now().Before(deadline); {
				if err := warmInit(fork); err != nil {
					t.Fatal(err)
				}
				snap = p.Snapshot()
			}
			if snap.Samples == 0 {
				t.Fatal("2 s of invokes on a fork under a started profiler: no samples")
			}
			for _, r := range snap.Rows {
				if r.Engine != tc.label || r.Strategy != tc.strategy {
					t.Errorf("row attributed to %s/%s, want %s/%s", r.Engine, r.Strategy, tc.label, tc.strategy)
				}
			}
		})
	}
}

func TestTemplateCapturesGrowState(t *testing.T) {
	eng := compiled.NewWAVM()
	cm, err := eng.Compile(templateModule(t, 7))
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Profile: isa.X86_64(), Strategy: mem.Mprotect}
	tpl, err := core.NewTemplate(cm, cfg, nil, func(inst core.Instance) error {
		if err := warmInit(inst); err != nil {
			return err
		}
		res, err := inst.Invoke("grow")
		if err != nil {
			return err
		}
		if int32(res[0]) < 0 {
			return errors.New("grow failed")
		}
		// Write into the grown page so the fork must see it.
		_, err = inst.Invoke("set", uint64(8500), uint64(0xbeef))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	fork, err := tpl.Fork()
	if err != nil {
		t.Fatal(err)
	}
	defer fork.Close()
	if res, _ := fork.Invoke("size"); res[0] != 2 {
		t.Fatalf("fork size = %d pages, want 2 (template grew)", res[0])
	}
	if res, _ := fork.Invoke("get", uint64(8500)); res[0] != 0xbeef+7 {
		t.Fatalf("fork lost grown-page write: %#x", res[0])
	}
	// Forks keep growing independently from the template's size.
	if res, _ := fork.Invoke("grow"); int32(res[0]) != 2 {
		t.Fatalf("fork grow returned %d, want previous size 2", int32(res[0]))
	}
}

func TestTemplateForkWithHostImports(t *testing.T) {
	// Imports are re-resolved per fork: each fork gets its own host
	// closure state.
	mb := gen.NewModule()
	mb.Memory(1, 2)
	tick := mb.ImportFunc("env", "tick", nil, []wasm.ValueType{wasm.I64})
	f := mb.Func("run", gen.I64Type)
	f.Body(gen.Return(gen.Call(tick)))
	mb.Export("run", f)
	m, err := mb.Module()
	if err != nil {
		t.Fatal(err)
	}
	eng := compiled.NewWAVM()
	cm, err := eng.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	counter := uint64(100)
	imports := core.Imports{"env": {"tick": core.HostFunc{
		Type: wasm.FuncType{Results: []wasm.ValueType{wasm.I64}},
		Fn: func(hc *core.HostContext, args []uint64) (uint64, error) {
			counter++
			return counter, nil
		},
	}}}
	cfg := core.Config{Profile: isa.X86_64(), Strategy: mem.Trap}
	tpl, err := core.NewTemplate(cm, cfg, imports, nil)
	if err != nil {
		t.Fatal(err)
	}
	fork, err := tpl.Fork()
	if err != nil {
		t.Fatal(err)
	}
	defer fork.Close()
	if res, _ := fork.Invoke("run"); res[0] != 101 {
		t.Fatalf("host import not wired through fork: %d", res[0])
	}
}

func TestSnapshotModuleMismatch(t *testing.T) {
	// A snapshot without memory cannot restore into a module that
	// declares one.
	if _, err := core.NewInstanceBase(module(), cfg(), nil,
		&core.StateSnapshot{}); err == nil {
		t.Error("memoryless snapshot accepted for module with memory")
	}
}

// TestForkDefaultPoolShared is the fork-side companion of
// TestDefaultPoolSharedAcrossInstances: uffd forks borrow arenas from
// the address space's one shared pool — never a private pool, never a
// fresh mmap per fork.
func TestForkDefaultPoolShared(t *testing.T) {
	eng := compiled.NewWAVM()
	cm, err := eng.Compile(templateModule(t, 11))
	if err != nil {
		t.Fatal(err)
	}
	as := vmm.New(isa.X86_64().VM)
	cfg := core.Config{Profile: isa.X86_64(), Strategy: mem.Uffd, AS: as}
	tpl, err := core.NewTemplate(cm, cfg, nil, warmInit)
	if err != nil {
		t.Fatal(err)
	}
	base := as.Snapshot().MmapCalls
	for i := 0; i < 3; i++ {
		fork, err := tpl.Fork()
		if err != nil {
			t.Fatalf("fork %d: %v", i, err)
		}
		if res, _ := fork.Invoke("get", uint64(9)); res[0] != 9*11+11 {
			t.Fatalf("fork %d content: %d", i, res[0])
		}
		if err := fork.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// The donor's arena is the only one ever mapped, and steady-state
	// forks perform zero mmap syscalls: the whole point.
	if base != 1 {
		t.Errorf("template build performed %d mmap calls, want 1", base)
	}
	if got := as.Snapshot().MmapCalls - base; got != 0 {
		t.Errorf("forks performed %d mmap calls, want 0 (forks minting private arenas?)", got)
	}
}
