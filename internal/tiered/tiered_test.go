package tiered

import (
	"sync"
	"testing"
	"time"

	"leapsandbounds/internal/compiled"
	"leapsandbounds/internal/core"
	"leapsandbounds/internal/isa"
	"leapsandbounds/internal/modcache"
	"leapsandbounds/internal/wasm"
	g "leapsandbounds/internal/wasmgen"
)

func kernelModule(t *testing.T) *wasm.Module {
	t.Helper()
	mb := g.NewModule()
	mb.Memory(1, 4)
	lay := g.NewLayout(0)
	arr := lay.I32(1024)
	f := mb.Func("k", wasm.I32)
	n := f.ParamI32("n")
	i := f.LocalI32("i")
	acc := f.LocalI32("acc")
	f.Body(
		g.For(i, g.I32(0), g.Get(n),
			arr.Store(g.Get(i), g.Mul(g.Get(i), g.Get(i))),
		),
		g.For(i, g.I32(0), g.Get(n),
			g.Set(acc, g.Add(g.Get(acc), arr.Load(g.Get(i)))),
		),
		g.Return(g.Get(acc)),
	)
	mb.Export("k", f)
	m, err := mb.Module()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// tierOf reports which tier an instance of this engine runs on.
func tierOf(inst core.Instance) string {
	if _, ok := inst.(*instance).inner.(*compiled.Instance); ok {
		return "optimized"
	}
	return "baseline"
}

func TestTierUpProducesSameResults(t *testing.T) {
	e := New()
	e.SetCache(modcache.New(0)) // a live tier-up, whatever the shared cache holds from an earlier run
	defer e.Close()
	cm, err := e.Compile(kernelModule(t))
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Profile: isa.X86_64()}

	// First instance may run on the baseline tier.
	inst1, err := cm.Instantiate(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	res1, err := inst1.Invoke("k", 500)
	if err != nil {
		t.Fatal(err)
	}
	inst1.Close()

	if !WaitReady(cm, 5*time.Second) {
		t.Fatal("top tier never became ready")
	}
	inst2, err := cm.Instantiate(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer inst2.Close()
	if got := tierOf(inst2); got != "optimized" {
		t.Errorf("after tier-up, instance tier = %s", got)
	}
	res2, err := inst2.Invoke("k", 500)
	if err != nil {
		t.Fatal(err)
	}
	if res1[0] != res2[0] {
		t.Errorf("tiers disagree: %d vs %d", res1[0], res2[0])
	}
	if e.stats().TierUps != 1 {
		t.Errorf("tier-ups: %d, want 1", e.stats().TierUps)
	}
}

func TestGCPausesOccurUnderLoad(t *testing.T) {
	e := New()
	defer e.Close()
	cm, err := e.Compile(kernelModule(t))
	if err != nil {
		t.Fatal(err)
	}
	WaitReady(cm, 5*time.Second)
	cfg := core.Config{Profile: isa.X86_64()}

	var wg sync.WaitGroup
	stopAt := time.Now().Add(100 * time.Millisecond)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stopAt) {
				inst, err := cm.Instantiate(cfg, nil)
				if err != nil {
					t.Error(err)
					return
				}
				// Long enough that the workers spend their time inside the
				// guest, where a collector tick finds them: the collector
				// skips ticks on which no isolate is running.
				if _, err := inst.Invoke("k", 16000); err != nil {
					t.Error(err)
				}
				inst.Close()
			}
		}()
	}
	wg.Wait()
	if e.stats().GCPauses == 0 {
		t.Error("no GC pauses under sustained load")
	}
}

func TestCloseIsIdempotent(t *testing.T) {
	e := New()
	e.Close()
	e.Close()
}
