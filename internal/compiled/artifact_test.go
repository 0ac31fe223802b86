package compiled_test

import (
	"bytes"
	"errors"
	"runtime/debug"
	"testing"

	"leapsandbounds/internal/compiled"
	"leapsandbounds/internal/core"
	"leapsandbounds/internal/isa"
	"leapsandbounds/internal/mem"
	"leapsandbounds/internal/wasm"
	g "leapsandbounds/internal/wasmgen"
)

// artifactModule has memory traffic, a loop, a helper call, and a
// trap-reachable tail so the round trip covers checked accesses,
// branch tables from For, and the call path.
func artifactModule(t *testing.T) *wasm.Module {
	t.Helper()
	mb := g.NewModule()
	mb.Memory(1, 4)
	h := mb.Func("mix", wasm.I64)
	hv := h.ParamI64("v")
	h.Body(g.Return(g.Mul(g.Xor(g.Get(hv), g.I64(0x7f4a7c15)), g.I64(0x5851f42d4c957f2d))))
	f := mb.Func("run", wasm.I64)
	x := f.ParamI64("x")
	i := f.LocalI32("i")
	acc := f.LocalI64("acc")
	f.Body(
		g.For(i, g.I32(0), g.I32(128),
			g.StoreI64(g.Mul(g.Get(i), g.I32(8)), 16,
				g.Call(h, g.Add(g.Get(x), g.I64FromI32U(g.Get(i))))),
		),
		g.For(i, g.I32(0), g.I32(128),
			g.Set(acc, g.Add(g.Get(acc), g.LoadI64(g.Mul(g.Get(i), g.I32(8)), 16))),
		),
		g.Return(g.Get(acc)),
	)
	mb.Export("run", f)
	mb.Export("mix", h)
	m, err := mb.Module()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// compiledEngines are the compiled pipelines, one per configuration
// that ships: wavm, wavm with elision off (the tiered engine's top tier
// and the elision ablation) and wasmtime's optimized stack stream.
var compiledEngines = []struct {
	name string
	mk   func() *compiled.Engine
}{
	{"wavm", compiled.NewWAVM},
	{"wavm-noelide", func() *compiled.Engine {
		e := compiled.NewWAVM()
		if err := e.SetElision(false); err != nil {
			panic(err)
		}
		return e
	}},
	{"wasmtime", compiled.NewWasmtime},
}

// TestArtifactRoundTrip pins the disk-tier contract for every engine
// configuration: encode(compile(m)) must decode to a module that is
// behaviourally identical under every strategy, and the decoded
// module must re-encode to the same bytes (it keeps its pre-elision
// IR, so a process that loaded from disk can still publish).
func TestArtifactRoundTrip(t *testing.T) {
	m := artifactModule(t)
	for _, c := range compiledEngines {
		t.Run(c.name, func(t *testing.T) {
			eng := c.mk()
			eng.SetCache(nil)
			cm, err := eng.CompileModule(m)
			if err != nil {
				t.Fatal(err)
			}
			data, err := eng.EncodeArtifact(cm)
			if err != nil {
				t.Fatal(err)
			}
			dm, err := eng.DecodeArtifact(m, data)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range mem.Strategies() {
				want := invoke1(t, cm, s, "run", 7)
				got := invoke1(t, dm, s, "run", 7)
				if got != want {
					t.Fatalf("strategy %v: decoded %#x, compiled %#x", s, got, want)
				}
			}
			re, err := eng.EncodeArtifact(dm)
			if err != nil {
				t.Fatalf("re-encode of decoded module: %v", err)
			}
			if !bytes.Equal(data, re) {
				t.Fatal("decoded module re-encodes differently")
			}
		})
	}
}

func invoke1(t *testing.T, cm core.CompiledModule, s mem.Strategy, export string, arg uint64) uint64 {
	t.Helper()
	inst, err := cm.Instantiate(core.Config{Strategy: s, Profile: isa.X86_64()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	res, err := inst.Invoke(export, arg)
	if err != nil {
		t.Fatal(err)
	}
	return res[0]
}

// TestArtifactRejectsMismatchedEngine: an artifact encoded under one
// codegen configuration must not decode under another — the flag echo
// in the payload catches what a mis-keyed file name would let through.
func TestArtifactRejectsMismatchedEngine(t *testing.T) {
	m := artifactModule(t)
	eng := compiled.NewWAVM()
	eng.SetCache(nil)
	cm, err := eng.CompileModule(m)
	if err != nil {
		t.Fatal(err)
	}
	data, err := eng.EncodeArtifact(cm)
	if err != nil {
		t.Fatal(err)
	}
	other := compiled.NewWasmtime()
	if _, err := other.DecodeArtifact(m, data); err == nil {
		t.Fatal("wasmtime decoded a wavm artifact")
	}
	garbled := append([]byte(nil), data...)
	garbled[0] ^= 0xff
	if _, err := eng.DecodeArtifact(m, garbled); err == nil {
		t.Fatal("garbled payload decoded")
	}
}

// TestArtifactCorruptionDoesNotPanic: a payload is checked only by the
// disk tier's footer before the codec sees it, so the codec must stand
// any bytes. Every truncation of an artifact decodes to an error, and
// every single-byte flip of it to an error or to a module, never to a
// panic, under every engine configuration.
func TestArtifactCorruptionDoesNotPanic(t *testing.T) {
	m := artifactModule(t)
	for _, c := range compiledEngines {
		name, eng := c.name, c.mk()
		eng.SetCache(nil)
		cm, err := eng.CompileModule(m)
		if err != nil {
			t.Fatal(err)
		}
		data, err := eng.EncodeArtifact(cm)
		if err != nil {
			t.Fatal(err)
		}
		decode := func(b []byte) (err error) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("%s: DecodeArtifact panicked: %v\n%s", name, r, debug.Stack())
				}
			}()
			_, err = eng.DecodeArtifact(m, b)
			return err
		}
		for n := range len(data) {
			if decode(data[:n]) == nil {
				t.Fatalf("%s: an artifact cut to %d of %d bytes decoded", name, n, len(data))
			}
		}
		b := bytes.Clone(data)
		for i := range b {
			for _, x := range []byte{0x01, 0x80, 0xff} {
				b[i] ^= x
				decode(b)
				b[i] ^= x
			}
		}
	}
}

// TestArtifactForeignModule: the codec refuses modules it did not
// compile with the ErrNoArtifact sentinel (the cache then skips the
// disk store rather than treating it as an error).
func TestArtifactForeignModule(t *testing.T) {
	eng := compiled.NewWAVM()
	if _, err := eng.EncodeArtifact(foreignModule{}); !errors.Is(err, core.ErrNoArtifact) {
		t.Fatalf("err = %v, want ErrNoArtifact", err)
	}
}

type foreignModule struct{}

func (foreignModule) Instantiate(core.Config, core.Imports) (core.Instance, error) {
	return nil, errors.New("foreign")
}

func (foreignModule) InstantiateSnapshot(core.Config, core.Imports, *core.StateSnapshot) (core.Instance, error) {
	return nil, errors.New("foreign")
}
