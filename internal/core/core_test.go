package core_test

import (
	"strings"
	"testing"
	"time"

	"leapsandbounds/internal/core"
	"leapsandbounds/internal/isa"
	"leapsandbounds/internal/mem"
	"leapsandbounds/internal/prof"
	"leapsandbounds/internal/vmm"
	"leapsandbounds/internal/wasm"
)

func module() *wasm.Module {
	return &wasm.Module{
		Types: []wasm.FuncType{{}},
		Mems:  []wasm.MemoryType{{Limits: wasm.Limits{Min: 1, Max: 4, HasMax: true}}},
		Globals: []wasm.Global{
			{Type: wasm.GlobalType{Type: wasm.I32, Mutable: true},
				Init: wasm.ConstExpr{Op: wasm.OpI32Const, Value: 7}},
			{Type: wasm.GlobalType{Type: wasm.F64, Mutable: true},
				Init: wasm.ConstExpr{Op: wasm.OpF64Const, Value: 0x4000000000000000}},
		},
		Data: []wasm.DataSegment{
			{Offset: wasm.ConstExpr{Op: wasm.OpI32Const, Value: 16}, Data: []byte("abc")},
		},
	}
}

func cfg() core.Config { return core.Config{Profile: isa.X86_64()} }

func TestInstanceBaseInit(t *testing.T) {
	b, err := core.NewInstanceBase(module(), cfg(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if b.Mem == nil || b.Mem.SizePages() != 1 {
		t.Fatal("memory not initialized")
	}
	if b.Globals[0] != 7 || b.Globals[1] != 0x4000000000000000 {
		t.Errorf("globals %v", b.Globals)
	}
	if got := b.Mem.LoadU8(16); got != 'a' {
		t.Errorf("data segment byte %q", got)
	}
}

func TestDataSegmentOutOfBounds(t *testing.T) {
	m := module()
	m.Data[0].Offset.Value = 65534 // "abc" crosses the 64 KiB end
	if _, err := core.NewInstanceBase(m, cfg(), nil, nil); err == nil {
		t.Error("out-of-bounds data segment accepted")
	}
}

func TestImportResolution(t *testing.T) {
	m := module()
	m.Types = append(m.Types, wasm.FuncType{
		Params:  []wasm.ValueType{wasm.I32},
		Results: []wasm.ValueType{wasm.I32},
	})
	m.Imports = []wasm.Import{{Module: "env", Name: "f", Kind: wasm.ExternFunc, Func: 1}}

	// Missing import.
	if _, err := core.NewInstanceBase(m, cfg(), nil, nil); err == nil ||
		!strings.Contains(err.Error(), "unknown import") {
		t.Errorf("missing import: %v", err)
	}

	// Signature mismatch.
	bad := core.Imports{"env": {"f": core.HostFunc{
		Type: wasm.FuncType{Params: []wasm.ValueType{wasm.F64}, Results: []wasm.ValueType{wasm.I32}},
	}}}
	if _, err := core.NewInstanceBase(m, cfg(), bad, nil); err == nil ||
		!strings.Contains(err.Error(), "type") {
		t.Errorf("mismatched import: %v", err)
	}

	// Correct import.
	good := core.Imports{"env": {"f": core.HostFunc{
		Type: wasm.FuncType{Params: []wasm.ValueType{wasm.I32}, Results: []wasm.ValueType{wasm.I32}},
		Fn: func(hc *core.HostContext, args []uint64) (uint64, error) {
			return args[0] + 1, nil
		},
	}}}
	b, err := core.NewInstanceBase(m, cfg(), good, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	v, err := b.CallHost(0, []uint64{41})
	if err != nil || v != 42 {
		t.Errorf("host call: %v %v", v, err)
	}
}

// TestFailedInstantiationLeavesNoProfilerCell: a failed instantiation
// has no Close, so it must not leave a cell registered. The sampler
// adds one to Profile.Idle per registered inactive cell per tick; with
// no live instance the count must stand still.
func TestFailedInstantiationLeavesNoProfilerCell(t *testing.T) {
	m := module()
	m.Types = append(m.Types, wasm.FuncType{})
	m.Imports = []wasm.Import{{Module: "env", Name: "absent", Kind: wasm.ExternFunc, Func: 1}}
	p := prof.New(4001)
	p.Start()
	defer p.Stop()
	c := cfg()
	c.Prof = p
	for i := 0; i < 5; i++ {
		if _, err := core.NewInstanceBase(m, c, nil, nil); err == nil {
			t.Fatal("unresolvable import accepted")
		}
	}
	idle := p.Snapshot().Idle
	time.Sleep(10 * time.Millisecond) // ≈ 40 sampler ticks
	if again := p.Snapshot().Idle; again != idle {
		t.Errorf("idle samples went %d → %d with no live instance: failed instantiations left cells registered", idle, again)
	}
}

func TestConfigDefaults(t *testing.T) {
	// Uffd without a pool must still instantiate (pool defaulted).
	c := core.Config{Profile: isa.X86_64(), Strategy: mem.Uffd}
	b, err := core.NewInstanceBase(module(), c, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	b.Close()

	// Missing profile is an error.
	if _, err := core.NewInstanceBase(module(), core.Config{}, nil, nil); err == nil {
		t.Error("nil profile accepted")
	}
}

func TestDefaultPoolSharedAcrossInstances(t *testing.T) {
	// Regression: the defaulted uffd arena pool must be one pool per
	// address space, not one per instantiation — otherwise sequential
	// instances each mmap a fresh arena and recycling never happens
	// (the serverless pattern the uffd strategy exists to serve).
	as := vmm.New(isa.X86_64().VM)
	c := core.Config{Profile: isa.X86_64(), Strategy: mem.Uffd, AS: as}
	for i := 0; i < 3; i++ {
		b, err := core.NewInstanceBase(module(), c, nil, nil)
		if err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
		b.Mem.StoreU8(0, 0xAB) // commit a page so recycling has work
		if err := b.Close(); err != nil {
			t.Fatalf("close %d: %v", i, err)
		}
	}
	// One arena mapped, reused twice, parked three times: the kernel
	// saw one mmap and no munmap.
	vs := as.Snapshot()
	if vs.MmapCalls != 1 {
		t.Errorf("mmap calls = %d, want 1 (fresh pool per instantiation?)", vs.MmapCalls)
	}
	if vs.MunmapCalls != 0 {
		t.Errorf("munmap calls = %d, want 0 (arenas not returned to the pool?)", vs.MunmapCalls)
	}
}

func TestMemoryCapRespectsModuleMax(t *testing.T) {
	b, err := core.NewInstanceBase(module(), cfg(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if got := b.Mem.Grow(10); got != -1 {
		t.Errorf("grow past module max returned %d", got)
	}
	if got := b.Mem.Grow(3); got != 1 {
		t.Errorf("grow to module max returned %d", got)
	}
}

func TestCheckClass(t *testing.T) {
	for _, tc := range []struct {
		s  mem.Strategy
		on bool
	}{
		{mem.None, false}, {mem.Clamp, true}, {mem.Trap, true},
		{mem.Mprotect, false}, {mem.Uffd, false},
	} {
		c := cfg()
		c.Strategy = tc.s
		b, err := core.NewInstanceBase(module(), c, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, on := b.CheckClass(); on != tc.on {
			t.Errorf("%v: software-check class on=%v, want %v", tc.s, on, tc.on)
		}
		b.Close()
	}
}

func TestTableInit(t *testing.T) {
	m := module()
	m.Types = append(m.Types, wasm.FuncType{})
	m.Funcs = []uint32{0}
	m.Code = []wasm.Code{{Body: []wasm.Instr{{Op: wasm.OpEnd}}}}
	m.Tables = []wasm.TableType{{Elem: wasm.Funcref, Limits: wasm.Limits{Min: 3}}}
	m.Elems = []wasm.ElemSegment{{
		Offset: wasm.ConstExpr{Op: wasm.OpI32Const, Value: 1},
		Funcs:  []uint32{0},
	}}
	b, err := core.NewInstanceBase(m, cfg(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if b.Filled[0] || !b.Filled[1] || b.Filled[2] {
		t.Errorf("table fill pattern %v", b.Filled)
	}
	if b.Table[1] != 0 {
		t.Errorf("table[1] = %d", b.Table[1])
	}

	// Out-of-bounds element segment.
	m.Elems[0].Offset.Value = 3
	if _, err := core.NewInstanceBase(m, cfg(), nil, nil); err == nil {
		t.Error("out-of-bounds elem segment accepted")
	}
}
