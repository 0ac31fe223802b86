package leaps_test

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	leaps "leapsandbounds"
	"leapsandbounds/gen"
)

// TestPublicAPIEndToEnd drives the full public surface: author a
// module with gen, compile on every engine, run under every
// strategy, and check agreement.
func TestPublicAPIEndToEnd(t *testing.T) {
	mb := gen.NewModule()
	mb.Memory(1, 4)
	arr := gen.ArrI64(0)
	f := mb.Func("work", gen.I64Type)
	n := f.ParamI32("n")
	i := f.LocalI32("i")
	acc := f.LocalI64("acc")
	f.Body(
		gen.For(i, gen.I32(0), gen.Get(n),
			arr.Store(gen.Get(i), gen.Mul(gen.I64FromI32(gen.Get(i)), gen.I64(2654435761))),
		),
		gen.For(i, gen.I32(0), gen.Get(n),
			gen.Set(acc, gen.Xor(gen.Get(acc), arr.Load(gen.Get(i)))),
		),
		gen.Return(gen.Get(acc)),
	)
	mb.Export("work", f)
	module, err := mb.Module()
	if err != nil {
		t.Fatal(err)
	}

	// Binary roundtrip through the public codec.
	bin, err := leaps.EncodeModule(module)
	if err != nil {
		t.Fatal(err)
	}
	module, err = leaps.DecodeModule(bin)
	if err != nil {
		t.Fatal(err)
	}

	var want uint64
	first := true
	for _, name := range []string{leaps.EngineWAVM, leaps.EngineWasmtime, leaps.EngineV8, leaps.EngineWasm3} {
		eng, closeEng, err := leaps.NewEngine(name)
		if err != nil {
			t.Fatal(err)
		}
		cm, err := eng.Compile(module)
		if err != nil {
			closeEng()
			t.Fatalf("%s: %v", name, err)
		}
		for _, s := range leaps.Strategies() {
			inst, err := cm.Instantiate(leaps.Config{Strategy: s, Profile: leaps.ProfileX86()}, nil)
			if err != nil {
				t.Fatalf("%s/%v: %v", name, s, err)
			}
			res, err := inst.Invoke("work", 2000)
			inst.Close()
			if err != nil {
				t.Fatalf("%s/%v: %v", name, s, err)
			}
			if first {
				want = res[0]
				first = false
			} else if res[0] != want {
				t.Errorf("%s/%v: %#x, want %#x", name, s, res[0], want)
			}
		}
		closeEng()
	}
}

func TestPublicWASI(t *testing.T) {
	mb := gen.NewModule()
	fdWrite := mb.ImportFunc("wasi_snapshot_preview1", "fd_write",
		[]gen.ValueType{gen.I32Type, gen.I32Type, gen.I32Type, gen.I32Type},
		[]gen.ValueType{gen.I32Type})
	procExit := mb.ImportFunc("wasi_snapshot_preview1", "proc_exit",
		[]gen.ValueType{gen.I32Type}, nil)
	mb.Memory(1, 2)
	mb.Data(64, []byte("leaps\n"))
	f := mb.Func("_start")
	f.Body(
		gen.StoreI32(gen.I32(0), 0, gen.I32(64)),
		gen.StoreI32(gen.I32(4), 0, gen.I32(6)),
		gen.Drop(gen.Call(fdWrite, gen.I32(1), gen.I32(0), gen.I32(1), gen.I32(16))),
		gen.CallS(procExit, gen.I32(3)),
	)
	mb.Export("_start", f)
	module, err := mb.Module()
	if err != nil {
		t.Fatal(err)
	}

	eng, closeEng, err := leaps.NewEngine(leaps.EngineWasmtime)
	if err != nil {
		t.Fatal(err)
	}
	defer closeEng()
	cm, err := eng.Compile(module)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	env := leaps.NewWASIEnv(&out, nil)
	inst, err := cm.Instantiate(leaps.Config{Profile: leaps.ProfileX86()}, env.Imports())
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	_, err = inst.Invoke("_start")
	var exit *leaps.WASIExitError
	if !errors.As(err, &exit) || exit.Code != 3 {
		t.Fatalf("want exit(3), got %v", err)
	}
	if out.String() != "leaps\n" {
		t.Errorf("stdout %q", out.String())
	}
}

func TestPublicProcessSharing(t *testing.T) {
	proc := leaps.NewProcess(leaps.ProfileX86())
	defer proc.Close()

	wl, err := leaps.WorkloadByName("atax")
	if err != nil {
		t.Fatal(err)
	}
	module, _ := wl.Build(leaps.SizeTest)
	eng, closeEng, err := leaps.NewEngine(leaps.EngineWAVM)
	if err != nil {
		t.Fatal(err)
	}
	defer closeEng()
	cm, err := eng.Compile(module)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		inst, err := cm.Instantiate(proc.Config(leaps.Uffd), nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := inst.Invoke("run"); err != nil {
			t.Fatal(err)
		}
		inst.Close()
	}
	vm := proc.VMStats()
	if vm.MmapCalls != 1 {
		t.Errorf("mmap calls %d, want 1 (arena reuse across instances)", vm.MmapCalls)
	}
	if vm.UffdFaults == 0 {
		t.Error("no uffd faults recorded")
	}
}

func TestWorkloadRegistryPublic(t *testing.T) {
	all := leaps.Workloads()
	if len(all) < 25 {
		t.Errorf("only %d workloads", len(all))
	}
	if _, err := leaps.WorkloadByName("505.mcf"); err != nil {
		t.Error(err)
	}
	if _, err := leaps.WorkloadByName("nonexistent"); err == nil {
		t.Error("bogus workload resolved")
	}
}

func TestParseStrategyPublic(t *testing.T) {
	for _, s := range leaps.Strategies() {
		parsed, err := leaps.ParseStrategy(s.String())
		if err != nil || parsed != s {
			t.Errorf("roundtrip %v: %v %v", s, parsed, err)
		}
	}
	if _, err := leaps.ParseStrategy("mpx"); err == nil ||
		!strings.Contains(err.Error(), "unknown") {
		t.Errorf("mpx: %v", err)
	}
}

func TestRunBenchmarkPublic(t *testing.T) {
	wl, err := leaps.WorkloadByName("jacobi-1d")
	if err != nil {
		t.Fatal(err)
	}
	res, err := leaps.RunBenchmark(leaps.BenchOptions{
		Engine:   leaps.EngineWasmtime,
		Workload: wl,
		Class:    leaps.SizeTest,
		Strategy: leaps.Uffd,
		Profile:  leaps.Profiles()[1], // aarch64
		Measure:  3,
		Warmup:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MedianWall <= 0 || res.Checksum == 0 {
		t.Errorf("suspicious result %+v", res)
	}
}
