package faultinject

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"leapsandbounds/internal/obs"
)

func allPlan(seed int64, rate float64) Plan {
	sites := make([]Site, numSites)
	for i := range sites {
		sites[i] = Site(i)
	}
	return Plan{Seed: seed, Rate: rate, Sites: sites, Delay: time.Microsecond}
}

// TestDecisionSequenceDeterministic is the replay contract: two
// injectors built from equal plans make identical per-site decision
// sequences.
func TestDecisionSequenceDeterministic(t *testing.T) {
	a := New(allPlan(42, 0.3), nil)
	b := New(allPlan(42, 0.3), nil)
	for s := Site(0); s < numSites; s++ {
		for i := 0; i < 500; i++ {
			da, db := a.Should(s), b.Should(s)
			if da != db {
				t.Fatalf("site %v decision %d: %v vs %v", s, i, da, db)
			}
		}
	}
}

// TestSeedsDiffer: different seeds give different sequences (with
// overwhelming probability at 500 draws and rate 0.3).
func TestSeedsDiffer(t *testing.T) {
	a := New(allPlan(1, 0.3), nil)
	b := New(allPlan(2, 0.3), nil)
	same := true
	for i := 0; i < 500; i++ {
		if a.Should(SiteMprotect) != b.Should(SiteMprotect) {
			same = false
		}
	}
	if same {
		t.Fatal("seeds 1 and 2 produced identical 500-draw sequences")
	}
}

// TestRateApproximation: the empirical rate tracks Plan.Rate.
func TestRateApproximation(t *testing.T) {
	for _, rate := range []float64{0.0, 0.1, 0.5, 1.0} {
		in := New(allPlan(7, rate), nil)
		fired := 0
		const n = 4000
		for i := 0; i < n; i++ {
			if in.Should(SiteUffdZero) {
				fired++
			}
		}
		got := float64(fired) / n
		if got < rate-0.05 || got > rate+0.05 {
			t.Errorf("rate %.2f: empirical %.3f", rate, got)
		}
	}
}

func TestDisabledSitesNeverFire(t *testing.T) {
	in := New(Plan{Seed: 3, Rate: 1.0, Sites: []Site{SiteMmap}}, nil)
	if !in.Should(SiteMmap) {
		t.Error("enabled site with rate 1.0 did not fire")
	}
	if in.Should(SiteGrow) || in.Fail(SiteMprotect) != nil || in.DelayIf(SiteUffdDelay) {
		t.Error("disabled site fired")
	}
	var nilInj *Injector
	if nilInj.Should(SiteMmap) || nilInj.Fail(SiteMmap) != nil || nilInj.GrowFail(1) {
		t.Error("nil injector fired")
	}
	nilInj.Recovered(SiteMmap) // must not panic
}

func TestFailReturnsTypedTransientError(t *testing.T) {
	in := New(Plan{Seed: 5, Rate: 1.0, Sites: []Site{SiteMprotect}}, nil)
	err := in.Fail(SiteMprotect)
	if err == nil {
		t.Fatal("rate-1.0 Fail returned nil")
	}
	site, ok := IsTransient(fmt.Errorf("wrapped: %w", err))
	if !ok || site != SiteMprotect {
		t.Fatalf("IsTransient = (%v, %v), want (mprotect, true)", site, ok)
	}
	if _, ok := IsTransient(errors.New("plain")); ok {
		t.Error("IsTransient matched a plain error")
	}
}

func TestGrowFailPages(t *testing.T) {
	in := New(Plan{Seed: 1, GrowFailPages: []uint32{4, 9}}, nil)
	for pages := uint32(1); pages <= 10; pages++ {
		want := pages == 4 || pages == 9
		if got := in.GrowFail(pages); got != want {
			t.Errorf("GrowFail(%d) = %v, want %v", pages, got, want)
		}
	}
	// Chosen page counts fire every time, not once.
	if !in.GrowFail(4) {
		t.Error("GrowFail(4) did not fire on repeat")
	}
}

func TestBudgetCapsInjections(t *testing.T) {
	p := allPlan(11, 1.0)
	p.Budget = 3
	in := New(p, nil)
	fired := 0
	for i := 0; i < 10; i++ {
		if in.Should(SiteMmap) {
			fired++
		}
	}
	if fired != 3 {
		t.Fatalf("budget 3: %d injections", fired)
	}
}

func TestObsCounters(t *testing.T) {
	reg := obs.NewRegistry()
	sc := reg.Scope("faultinject")
	in := New(Plan{Seed: 2, Rate: 1.0, Sites: []Site{SiteUffdZero}}, sc)
	in.Should(SiteUffdZero)
	in.Should(SiteUffdZero)
	in.Recovered(SiteUffdZero)
	snap := reg.Snapshot(false)
	if got := snap.Counters["faultinject/inject_uffd_zero"]; got != 2 {
		t.Errorf("inject_uffd_zero = %d, want 2", got)
	}
	if got := snap.Counters["faultinject/recover_uffd_zero"]; got != 1 {
		t.Errorf("recover_uffd_zero = %d, want 1", got)
	}
	if got := snap.Counters["faultinject/injections"]; got != 2 {
		t.Errorf("injections = %d, want 2", got)
	}
}

// TestConcurrentUse exercises the atomic counters under the race
// detector; per-site totals must balance.
func TestConcurrentUse(t *testing.T) {
	in := New(allPlan(9, 0.5), nil)
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if in.Should(SiteFaultDrop) {
					in.Recovered(SiteFaultDrop)
				}
				_ = in.Fail(SiteMmap)
				in.GrowFail(uint32(i))
			}
		}()
	}
	wg.Wait()
	if got := in.evals[SiteFaultDrop].Load(); got != workers*per {
		t.Errorf("fault_drop evals = %d, want %d", got, workers*per)
	}
	if got := in.injectCtrs[SiteFaultDrop].Load(); got == 0 || got >= workers*per {
		t.Errorf("fault_drop injects = %d out of plausible range", got)
	}
}

func TestDeriveChangesSeedOnly(t *testing.T) {
	p := allPlan(100, 0.25)
	d0, d1 := p.Derive(0), p.Derive(1)
	if d0.Seed == d1.Seed || d0.Seed == p.Seed {
		t.Errorf("derived seeds not distinct: base %d, d0 %d, d1 %d", p.Seed, d0.Seed, d1.Seed)
	}
	if d0.Rate != p.Rate || len(d0.Sites) != len(p.Sites) {
		t.Error("Derive changed non-seed fields")
	}
	// Deriving twice with the same shard is stable.
	if p.Derive(3).Seed != p.Derive(3).Seed {
		t.Error("Derive not deterministic")
	}
}
