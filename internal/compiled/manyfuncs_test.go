package compiled_test

import (
	"bytes"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"leapsandbounds/internal/compiled"
	"leapsandbounds/internal/core"
	"leapsandbounds/internal/interp"
	"leapsandbounds/internal/isa"
	"leapsandbounds/internal/mem"
	"leapsandbounds/internal/obs"
	"leapsandbounds/internal/rir"
	"leapsandbounds/internal/validate"
	"leapsandbounds/internal/wasm"
	g "leapsandbounds/internal/wasmgen"
)

// manyFuncsModule builds a module of n small functions plus a "run"
// export that folds every function's result into one digest — the
// shape of a real Wasm binary (hundreds of functions) rather than of
// the registered kernels (one or two). The bodies rotate through
// three shapes so the fan-out sees uneven work and every back-half
// pass has something to do: a counted loop of same-base loads and
// stores (loop hoisting, address fusion, load+op fusion), a branchy
// body calling its predecessor, and straight-line arithmetic.
func manyFuncsModule(tb testing.TB, n int) *wasm.Module {
	tb.Helper()
	rng := rand.New(rand.NewSource(int64(n)))
	mb := g.NewModule()
	mb.Memory(1, 1)
	run := mb.Func("run", wasm.I64)
	total := run.LocalI64("total")
	var prev *g.Func
	for k := 0; k < n; k++ {
		fn := mb.Func("", wasm.I64)
		i := fn.LocalI32("i")
		acc := fn.LocalI64("acc")
		off := uint32(rng.Intn(0x8000)) &^ 7
		switch {
		case k%3 == 0:
			addr := g.Shl(g.Get(i), g.I32(3))
			var body []g.Stmt
			for j := 0; j < 4+rng.Intn(8); j++ {
				body = append(body,
					g.Set(acc, g.Add(g.Mul(g.Get(acc), g.I64(rng.Int63()|1)), g.LoadI64(addr, off+uint32(8*j)))),
					g.StoreI64(addr, off+uint32(8*j), g.Xor(g.Get(acc), g.I64(rng.Int63()))))
			}
			fn.Body(
				g.Set(acc, g.I64(rng.Int63())),
				g.For(i, g.I32(0), g.I32(4), body...),
				g.Return(g.Get(acc)))
		case k%3 == 1 && prev != nil:
			fn.Body(
				g.Set(acc, g.Call(prev)),
				g.IfElse(g.Eqz(g.I32FromI64(g.And(g.Get(acc), g.I64(1)))),
					[]g.Stmt{g.Set(acc, g.Rotl(g.Get(acc), g.I64(int64(rng.Intn(63)+1))))},
					[]g.Stmt{g.StoreI64(g.I32(0), off, g.Get(acc))}),
				g.Return(g.Add(g.Get(acc), g.LoadI64(g.I32(0), off))))
		default:
			fn.Body(
				g.Set(acc, g.I64(rng.Int63())),
				g.Set(acc, g.Xor(g.Mul(g.Get(acc), g.I64(rng.Int63()|1)), g.ShrU(g.Get(acc), g.I64(29)))),
				g.Return(g.Get(acc)))
		}
		run.Body(g.Set(total, g.Add(g.Mul(g.Get(total), g.I64(31)), g.Call(fn))))
		prev = fn
	}
	run.Body(g.Return(g.Get(total)))
	mb.Export("run", run)
	m, err := mb.Module()
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// coldEngines returns fresh cache-detached engines, so every Compile
// pays the whole pipeline.
func coldEngines() map[string]core.Engine {
	wavm, noElide, wasmtime, wasm3 := compiled.NewWAVM(), compiled.NewWAVM(), compiled.NewWasmtime(), interp.NewWasm3()
	if err := noElide.SetElision(false); err != nil {
		panic(err)
	}
	engines := map[string]core.Engine{"wavm": wavm, "wavm-noelide": noElide, "wasmtime": wasmtime, "wasm3": wasm3}
	for _, e := range engines {
		e.SetCache(nil)
	}
	return engines
}

// BenchmarkCompileManyFuncs is the layer benchmark of the cold start of
// a 256-function module, layer by layer. The engine rows compile one
// *wasm.Module over and over: it carries wasmgen's validated mark, so
// they contain no validation (they did before validate.Module kept the
// mark: about a third of the wavm row and over half of the wasm3 row
// was a walk whose outcome was known) — they are flatten → rir → elide
// → emit, per engine. The front row is what comes before an engine
// sees the module: validate.Decode from bytes, what a cold start runs,
// every op on a fresh module. The wavm-noelide row is wavm with bounds-check
// elision off, so wavm − wavm-noelide is what elision costs a compile.
// The wavm-encode and wavm-decode rows are the disk
// tier's artifact codec over the wavm compile of the same module:
// wavm-decode is what a disk hit costs past the read, against the wavm
// row. Run
// it with -cpu 1,2: B/op is the passes' copying,
// and the 1-vs-2 ratio of ns/op is what the per-function fan-out buys
// on this host. The collector is parked as the benchmark's coldstart
// workload parks it (parked), so ns/op is the compile, not the GC
// assist and marking its garbage would cost.
func BenchmarkCompileManyFuncs(b *testing.B) {
	m := manyFuncsModule(b, 256)
	bin, err := wasm.Encode(m)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("front", func(b *testing.B) {
		b.SetBytes(int64(len(bin))) // MB/s, the unit of the benchmark's wasm.decode_mb_s
		parked(b, func() error {
			_, err := validate.Decode(bin)
			return err
		})
	})
	for _, name := range []string{"wavm", "wavm-noelide", "wasmtime", "wasm3"} {
		eng := coldEngines()[name]
		b.Run(name, func(b *testing.B) {
			parked(b, func() error {
				_, err := eng.Compile(m)
				return err
			})
		})
	}
	wavm := compiled.NewWAVM()
	wavm.SetCache(nil)
	cm, err := wavm.CompileModule(m)
	if err != nil {
		b.Fatal(err)
	}
	art, err := wavm.EncodeArtifact(cm)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("wavm-encode", func(b *testing.B) {
		b.SetBytes(int64(len(art)))
		parked(b, func() error {
			_, err := wavm.EncodeArtifact(cm)
			return err
		})
	})
	b.Run("wavm-decode", func(b *testing.B) {
		b.SetBytes(int64(len(art)))
		parked(b, func() error {
			_, err := wavm.DecodeArtifact(m, art)
			return err
		})
	})
}

// parked runs op b.N times with the collector switched off and a
// collection between iterations, the timer stopped — how
// benchmark/collect.go keeps collector work out of a measured op —
// reporting B/op and allocs/op.
func parked(b *testing.B, op func() error) {
	b.ReportAllocs()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for i := 0; i < b.N; i++ {
		if err := op(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		runtime.GC()
		b.StartTimer()
	}
}

// coldStart is everything a cold start of the many-function module
// — decode, validate, compile — must reproduce whatever the worker
// count.
type coldStart struct {
	module   *wasm.Module // as decoded and validated
	artifact []byte       // compiled engines only
	rir      rir.RIRStats
	bce      compiled.BCEStats
	spans    int
	digest   uint64
}

func compileAt(t *testing.T, procs int, name string, bin []byte) coldStart {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	m, err := wasm.Decode(bin)
	if err == nil {
		err = validate.Module(m)
	}
	if err != nil {
		t.Fatalf("%s GOMAXPROCS=%d: %v", name, procs, err)
	}
	// Tracing is on so that the rir.lower spans the workers emit
	// concurrently are under the race detector too.
	reg := obs.NewRegistrySized(1 << 12)
	reg.EnableTracing(true)
	rir.AttachObs(reg.Scope("rir"))
	defer rir.AttachObs(nil)

	eng := coldEngines()[name]
	r0, b0 := rir.Stats(), compiled.Stats()
	cm, err := eng.Compile(m)
	if err != nil {
		t.Fatalf("%s GOMAXPROCS=%d: %v", name, procs, err)
	}
	r1, b1 := rir.Stats(), compiled.Stats()
	out := coldStart{
		module: m,
		rir: rir.RIRStats{
			OpsIn: r1.OpsIn - r0.OpsIn, OpsOut: r1.OpsOut - r0.OpsOut,
			FusedCmpBr: r1.FusedCmpBr - r0.FusedCmpBr, FusedLdOp: r1.FusedLdOp - r0.FusedLdOp,
			RegsAllocated: r1.RegsAllocated - r0.RegsAllocated,
		},
		bce: compiled.BCEStats{
			ChecksEmitted: b1.ChecksEmitted - b0.ChecksEmitted, ChecksElided: b1.ChecksElided - b0.ChecksElided,
			Hoisted: b1.Hoisted - b0.Hoisted, AddrFused: b1.AddrFused - b0.AddrFused,
		},
	}
	for _, ev := range reg.Snapshot(true).Events {
		if ev.Kind == obs.SpanEnd {
			out.spans++
		}
	}
	if codec, ok := eng.(core.ArtifactCodec); ok {
		if out.artifact, err = codec.EncodeArtifact(cm); err != nil {
			t.Fatal(err)
		}
		// A decode of the artifact must equal the fresh compile.
		dm, err := codec.DecodeArtifact(m, out.artifact)
		if err != nil {
			t.Fatal(err)
		}
		re, err := codec.EncodeArtifact(dm)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(re, out.artifact) {
			t.Errorf("%s GOMAXPROCS=%d: decoded module re-encodes differently", name, procs)
		}
		if got, want := runDigest(t, dm), runDigest(t, cm); got != want {
			t.Errorf("%s GOMAXPROCS=%d: decoded module digest %#x, fresh compile %#x", name, procs, got, want)
		}
	}
	out.digest = runDigest(t, cm)
	return out
}

// TestStatsAndRegistryReadTheSameCounters: the elision and lowering
// counters are counted once, in objects their packages own. After a
// real compile, Stats() and a snapshot of a registry they were attached
// to — twice, which must not count anything twice — agree field for
// field, although the registry came after other tests' compiles (a late
// registry sees process totals).
func TestStatsAndRegistryReadTheSameCounters(t *testing.T) {
	reg := obs.NewRegistry()
	for i := 0; i < 2; i++ {
		compiled.AttachBCEObs(reg.Scope("bce"))
		rir.AttachObs(reg.Scope("rir"))
	}
	defer rir.AttachObs(nil)
	if _, err := coldEngines()["wavm"].Compile(manyFuncsModule(t, 24)); err != nil {
		t.Fatal(err)
	}
	b, r, got := compiled.Stats(), rir.Stats(), reg.Snapshot(false).Counters
	if b.ChecksElided == 0 || b.Hoisted == 0 || r.OpsIn == 0 || r.FusedLdOp == 0 {
		t.Fatalf("the compile left the counters idle: %+v %+v", b, r)
	}
	want := map[string]int64{
		"bce/checks_emitted": b.ChecksEmitted, "bce/checks_elided": b.ChecksElided,
		"bce/hoisted": b.Hoisted, "bce/addr_fused": b.AddrFused,
		"rir/ops_in": r.OpsIn, "rir/ops_out": r.OpsOut, "rir/fused_cmpbr": r.FusedCmpBr,
		"rir/fused_ldop": r.FusedLdOp, "rir/regs_allocated": r.RegsAllocated,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("registry %v\nStats()  %v", got, want)
	}
}

func runDigest(t *testing.T, cm core.CompiledModule) uint64 {
	t.Helper()
	inst, err := cm.Instantiate(core.Config{Strategy: mem.Trap, Profile: isa.X86_64()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	res, err := inst.Invoke("run")
	if err != nil {
		t.Fatal(err)
	}
	return res[0]
}

// TestCompileSameOnAnyWorkerCount: the per-function fan-out must be
// invisible in the result, from the bytes on. One worker and four
// decode the same module and accept it, build byte-identical
// artifacts, move every pipeline counter by the same amount, emit the
// same number of rir.lower spans and run to the same digest, on all
// three engines; the artifact decodes back to the same module.
func TestCompileSameOnAnyWorkerCount(t *testing.T) {
	m := manyFuncsModule(t, 256)
	bin, err := wasm.Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	var digest uint64
	for _, name := range []string{"wavm", "wasmtime", "wasm3"} {
		one, four := compileAt(t, 1, name, bin), compileAt(t, 4, name, bin)
		if !reflect.DeepEqual(one.module, four.module) || len(one.module.Code) != len(m.Code) {
			t.Errorf("%s: the module decoded by 1 worker and by 4 differ", name)
		}
		if !bytes.Equal(one.artifact, four.artifact) {
			t.Errorf("%s: artifact differs between 1 and 4 workers (%d vs %d bytes)", name, len(one.artifact), len(four.artifact))
		}
		if one.rir != four.rir || one.bce != four.bce || one.spans != four.spans {
			t.Errorf("%s: counters differ:\n 1 worker  %+v %+v spans=%d\n 4 workers %+v %+v spans=%d",
				name, one.rir, one.bce, one.spans, four.rir, four.bce, four.spans)
		}
		if name == "wavm" && (one.rir.FusedLdOp == 0 || one.bce.ChecksElided == 0 || one.spans != len(m.Code)) {
			t.Errorf("wavm: module does not exercise the back half: %+v %+v spans=%d", one.rir, one.bce, one.spans)
		}
		if one.digest != four.digest {
			t.Errorf("%s: digest %#x with 1 worker, %#x with 4", name, one.digest, four.digest)
		}
		if digest == 0 {
			digest = one.digest
		}
		if one.digest != digest {
			t.Errorf("%s: digest %#x, other engines %#x", name, one.digest, digest)
		}
	}
}

// TestCompileTinyModules: modules of zero functions and of one — the
// registered kernels' shape — compile inline (fanout starts no worker
// for them, see its own test) on every engine.
func TestCompileTinyModules(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	mb := g.NewModule()
	run := mb.Func("run", wasm.I64)
	run.Body(g.Return(g.I64(7)))
	mb.Export("run", run)
	one, err := mb.Module()
	if err != nil {
		t.Fatal(err)
	}
	for name, eng := range coldEngines() {
		if _, err := eng.Compile(&wasm.Module{}); err != nil {
			t.Errorf("%s: empty module: %v", name, err)
		}
		cm, err := eng.Compile(one)
		if err != nil {
			t.Fatalf("%s: one function: %v", name, err)
		}
		if got := runDigest(t, cm); got != 7 {
			t.Errorf("%s: one function: run = %d, want 7", name, got)
		}
	}
}
