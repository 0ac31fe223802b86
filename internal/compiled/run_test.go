package compiled

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"leapsandbounds/internal/core"
	"leapsandbounds/internal/flatten"
	"leapsandbounds/internal/isa"
	"leapsandbounds/internal/mem"
	"leapsandbounds/internal/rir"
	"leapsandbounds/internal/wasm"
	"leapsandbounds/internal/workloads"
)

// TestProveRejectsSlotOutsideFrame: run addresses its frame through a
// pointer, so emit must refuse a stream that names a slot at or past
// the frame size, in any position an op addresses one. Each hand-built
// function compiles with its one stray slot moved back inside the
// frame, and fails to compile with the slot at frameSize.
func TestProveRejectsSlotOutsideFrame(t *testing.T) {
	const frame = 4
	ret := rir.Inst{Shape: rir.ShReturn}
	for _, c := range []struct {
		name  string
		build func(f *rir.Func, slot int32) []rir.Inst
	}{
		{"move dst", func(f *rir.Func, slot int32) []rir.Inst {
			return []rir.Inst{{Shape: rir.ShMove, Dst: slot, A: 0}, ret}
		}},
		{"binary operand", func(f *rir.Func, slot int32) []rir.Inst {
			return []rir.Inst{{Shape: rir.ShBin, Op: wasm.OpI64Add, Dst: 0, A: 1, B: slot}, ret}
		}},
		{"select condition", func(f *rir.Func, slot int32) []rir.Inst {
			s := rir.Inst{Shape: rir.ShSelect, Dst: 0, A: 1, B: 2}
			f.SetC(&s, slot)
			return []rir.Inst{s, ret}
		}},
		{"folded address", func(f *rir.Func, slot int32) []rir.Inst {
			s := rir.Inst{Shape: rir.ShLoad, Op: wasm.OpI64Load, Dst: 0, Flags: rir.MemAcc}
			f.SetAddr(&s, rir.Lin{X: 1, Y: int(slot), CX: 1, CY: 8})
			return []rir.Inst{s, ret}
		}},
		{"call window", func(f *rir.Func, slot int32) []rir.Inst {
			s := rir.Inst{Shape: rir.ShCall}
			f.SetCall(&s, rir.Call{ArgBase: 2, NArgs: int8(slot - 1)})
			return []rir.Inst{s, ret}
		}},
		{"br_table carry", func(f *rir.Func, slot int32) []rir.Inst {
			s := rir.Inst{Shape: rir.ShBrTable, A: 0}
			f.SetTable(&s, rir.BrTable{Targets: []flatten.BranchTarget{{Tgt: 1, PopTo: slot, Arity: 1}}, CarrySrc: 1})
			return []rir.Inst{s, ret}
		}},
		{"pair half", func(f *rir.Func, slot int32) []rir.Inst {
			code := []rir.Inst{
				{Shape: rir.ShBin, Op: wasm.OpF64Mul, Dst: 2, A: 0, B: 1},
				{Shape: rir.ShBin, Op: wasm.OpF64Add, Dst: slot, A: 2, B: 0},
				ret,
			}
			f.Code = code
			if f.FuseMem(nil) != 1 {
				t.Fatal("the pair did not fuse")
			}
			return f.Code
		}},
	} {
		for _, slot := range []int32{frame - 1, frame} {
			f := &rir.Func{NumLocals: 2}
			f.Code = c.build(f, slot)
			cf := &cfunc{frameSize: frame}
			err := cf.emit(f)
			if slot < frame && err != nil {
				t.Errorf("%s at slot %d: %v", c.name, slot, err)
			}
			if slot == frame && (err == nil || !strings.Contains(err.Error(), "outside its frame")) {
				t.Errorf("%s at slot %d: compiled (%v), want a frame error", c.name, slot, err)
			}
		}
	}
}

// TestAccountedStreamsShared: a module's accounted streams are built
// once, by whichever counted instance asks first, and then shared. Four
// counted instances of one module, started at once, must each compute
// the native result and count the same dispatches and cycle counts as
// one counted instance on its own. Run it under -race.
func TestAccountedStreamsShared(t *testing.T) {
	wl, err := workloads.ByName("gemm")
	if err != nil {
		t.Fatal(err)
	}
	module, native := wl.Build(workloads.Test)
	want := native()
	eng := NewWAVM()
	eng.SetCache(nil)
	counted := func(cm *Module) (int64, isa.Counts, error) {
		inst, err := cm.instantiate(core.Config{Profile: isa.X86_64(), Strategy: mem.Trap, CountCycles: true}, nil, nil)
		if err != nil {
			return 0, isa.Counts{}, err
		}
		defer inst.Close()
		res, err := inst.Invoke(workloads.Entry)
		if err == nil && res[0] != want {
			err = fmt.Errorf("run() = %d, want %d", res[0], want)
		}
		return inst.dispatches, inst.base.CycleCounts, err
	}
	alone, err := eng.CompileModule(module)
	if err != nil {
		t.Fatal(err)
	}
	wantN, wantCounts, err := counted(alone)
	if err != nil {
		t.Fatal(err)
	}
	shared, err := eng.CompileModule(module)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n, counts, err := counted(shared)
			if err != nil || n != wantN || counts != wantCounts {
				t.Errorf("concurrent counted run: %d dispatches (want %d), counts equal %v, err %v", n, wantN, counts == wantCounts, err)
			}
		}()
	}
	wg.Wait()
}
