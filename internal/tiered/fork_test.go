package tiered

import (
	"testing"
	"time"

	"leapsandbounds/internal/core"
	"leapsandbounds/internal/isa"
	"leapsandbounds/internal/wasm"
	g "leapsandbounds/internal/wasmgen"
)

// warmableModule: "init" stamps a recognizable value, "get" reads it
// back. Distinct from kernelModule so the background compile isn't
// shared between tests.
func warmableModule(t *testing.T) *wasm.Module {
	t.Helper()
	mb := g.NewModule()
	mb.Memory(1, 4)
	init := mb.Func("init")
	init.Body(g.StoreI64(g.I32(64), 0, g.I64(0xabcdef)))
	mb.Export("init", init)
	get := mb.Func("get", wasm.I64)
	get.Body(g.Return(g.LoadI64(g.I32(64), 0)))
	mb.Export("get", get)
	m, err := mb.Module()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestForkAdoptsTopTier(t *testing.T) {
	e := New()
	defer e.Close()
	cm, err := e.Compile(warmableModule(t))
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Profile: isa.X86_64()}
	warm := func(inst core.Instance) error {
		_, err := inst.Invoke("init")
		return err
	}
	tpl, err := core.NewTemplate(cm, cfg, nil, warm)
	if err != nil {
		t.Fatal(err)
	}

	// Before the optimizing compile lands, forks run on whatever tier
	// is available — the snapshot itself is tier-independent.
	early, err := tpl.Fork()
	if err != nil {
		t.Fatal(err)
	}
	if res, _ := early.Invoke("get"); res[0] != 0xabcdef {
		t.Fatalf("early fork lost warm state: %#x", res[0])
	}
	earlyTier := tierOf(early)
	early.Close()

	if !WaitReady(cm, 5*time.Second) {
		t.Fatal("top tier never became ready")
	}

	// Forks taken after tier-up adopt the optimized tier even though
	// the snapshot was captured from a (possibly) baseline donor.
	late, err := tpl.Fork()
	if err != nil {
		t.Fatal(err)
	}
	defer late.Close()
	if got := tierOf(late); got != "optimized" {
		t.Errorf("post-tier-up fork runs on %q (early fork ran on %q), want optimized",
			got, earlyTier)
	}
	if res, _ := late.Invoke("get"); res[0] != 0xabcdef {
		t.Fatalf("optimized fork lost warm state: %#x", res[0])
	}
}
