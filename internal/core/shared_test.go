package core_test

import (
	"strings"
	"sync"
	"testing"

	"leapsandbounds/gen"
	"leapsandbounds/internal/compiled"
	"leapsandbounds/internal/core"
	"leapsandbounds/internal/isa"
	"leapsandbounds/internal/mem"
	"leapsandbounds/internal/vmm"
	"leapsandbounds/internal/wasm"
)

// sharedModule: "set"/"get" over a 1..8 page memory, plus "grow".
// No data segments, so re-instantiation does not clobber the shared
// state the cross-instance tests assert on.
func sharedModule(t *testing.T) *wasm.Module {
	t.Helper()
	mb := gen.NewModule()
	mb.Memory(1, 8)
	set := mb.Func("set")
	si := set.ParamI32("i")
	sv := set.ParamI64("v")
	set.Body(gen.StoreI64(gen.Mul(gen.Get(si), gen.I32(8)), 0, gen.Get(sv)))
	mb.Export("set", set)
	get := mb.Func("get", gen.I64Type)
	p := get.ParamI32("i")
	get.Body(gen.Return(gen.LoadI64(gen.Mul(gen.Get(p), gen.I32(8)), 0)))
	mb.Export("get", get)
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

// TestSharedForkRefusal pins the fork interaction for every strategy:
// a template (and thus Fork) over a shared-memory config must refuse
// cleanly — a fork of one thread of a thread group is not an isolate,
// and the degraded fork path would hand every "fork" the same live
// memory.
func TestSharedForkRefusal(t *testing.T) {
	eng := compiled.NewWAVM()
	m := sharedModule(t)
	cm, err := eng.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range mem.Strategies() {
		t.Run(s.String(), func(t *testing.T) {
			cfg := core.Config{Profile: isa.X86_64(), Strategy: s}
			shm, err := core.NewSharedMemory(m, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer shm.Close()
			cfg.SharedMem = shm
			if _, err := core.NewTemplate(cm, cfg, nil, nil); err == nil {
				t.Fatal("NewTemplate accepted a shared-memory config")
			} else if !strings.Contains(err.Error(), "shared") {
				t.Fatalf("refusal does not name the cause: %v", err)
			}
			// The memory must still be usable after the refusal.
			inst, err := cm.Instantiate(cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer inst.Close()
			if _, err := inst.Invoke("set", 1, 42); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSharedAttachValidation: the attach path rejects memories that
// are not shared or whose strategy differs from the instance's.
func TestSharedAttachValidation(t *testing.T) {
	eng := compiled.NewWAVM()
	m := sharedModule(t)
	cm, err := eng.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Profile: isa.X86_64(), Strategy: mem.Trap}
	shm, err := core.NewSharedMemory(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer shm.Close()

	bad := cfg
	bad.Strategy = mem.Clamp
	bad.SharedMem = shm
	if _, err := cm.Instantiate(bad, nil); err == nil {
		t.Fatal("strategy mismatch accepted")
	}

	priv, err := mem.New(mem.Config{Strategy: mem.Trap, AS: vmm.New(isa.X86_64().VM), MinPages: 1, MaxPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer priv.Close()
	bad = cfg
	bad.SharedMem = priv
	if _, err := cm.Instantiate(bad, nil); err == nil {
		t.Fatal("non-shared memory accepted")
	}
}

// TestSharedCrossInstanceVisibility: writes through one instance are
// visible through every sibling, and a grow through one is observed
// by all (same memory, same length publication) — per strategy.
func TestSharedCrossInstanceVisibility(t *testing.T) {
	eng := compiled.NewWAVM()
	m := sharedModule(t)
	cm, err := eng.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range mem.Strategies() {
		t.Run(s.String(), func(t *testing.T) {
			cfg := core.Config{Profile: isa.X86_64(), Strategy: s}
			shm, err := core.NewSharedMemory(m, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer shm.Close()
			cfg.SharedMem = shm

			const workers = 4
			insts := make([]core.Instance, workers)
			for i := range insts {
				inst, err := cm.Instantiate(cfg, nil)
				if err != nil {
					t.Fatal(err)
				}
				defer inst.Close()
				insts[i] = inst
			}

			// Concurrent disjoint writes, one lane per instance.
			var wg sync.WaitGroup
			wg.Add(workers)
			for w := 0; w < workers; w++ {
				go func(w int) {
					defer wg.Done()
					for i := 0; i < 64; i++ {
						cell := uint64(w*64 + i)
						if _, err := insts[w].Invoke("set", cell, uint64(w)<<32|uint64(i)); err != nil {
							t.Errorf("worker %d: %v", w, err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			// Every instance reads every lane.
			for r := 0; r < workers; r++ {
				for w := 0; w < workers; w++ {
					cell := uint64(w*64 + 17)
					out, err := insts[r].Invoke("get", cell)
					if err != nil {
						t.Fatal(err)
					}
					if want := uint64(w)<<32 | 17; out[0] != want {
						t.Fatalf("reader %d lane %d: %#x, want %#x", r, w, out[0], want)
					}
				}
			}
			// Grow through instance 0, observe through instance 3.
			out, err := insts[0].Invoke("grow")
			if err != nil {
				t.Fatal(err)
			}
			if int32(out[0]) != 1 {
				t.Fatalf("grow returned %d, want old size 1", int32(out[0]))
			}
			out, err = insts[workers-1].Invoke("size")
			if err != nil {
				t.Fatal(err)
			}
			if out[0] != 2 {
				t.Fatalf("sibling sees size %d, want 2", out[0])
			}
		})
	}
}
