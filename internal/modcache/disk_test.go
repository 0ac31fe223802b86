package modcache_test

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"leapsandbounds/internal/compiled"
	"leapsandbounds/internal/core"
	"leapsandbounds/internal/isa"
	"leapsandbounds/internal/mem"
	"leapsandbounds/internal/modcache"
	"leapsandbounds/internal/obs"
	"leapsandbounds/internal/wasm"
	g "leapsandbounds/internal/wasmgen"
)

// memModule builds a module with memory traffic so the decoded
// artifact exercises the bounds-check-bearing IR shapes (the part of
// the pipeline elide/FuseMem replay on decode), varying with seed for
// distinct content hashes.
func memModule(t testing.TB, seed int64) *wasm.Module {
	t.Helper()
	mb := g.NewModule()
	mb.Memory(1, 4)
	f := mb.Func("run", wasm.I64)
	x := f.ParamI64("x")
	i := f.LocalI32("i")
	acc := f.LocalI64("acc")
	f.Body(
		g.For(i, g.I32(0), g.I32(256),
			g.StoreI64(g.Mul(g.Get(i), g.I32(8)), 0,
				g.Mul(g.Add(g.I64FromI32U(g.Get(i)), g.Get(x)), g.I64(seed*2+2654435761))),
		),
		g.For(i, g.I32(0), g.I32(256),
			g.Set(acc, g.Add(g.Get(acc), g.LoadI64(g.Mul(g.Get(i), g.I32(8)), 0))),
		),
		g.Return(g.Get(acc)),
	)
	mb.Export("run", f)
	m, err := mb.Module()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// runModule compiles m through eng and invokes run(x) under strategy s.
func runModule(t *testing.T, eng core.Engine, m *wasm.Module, s mem.Strategy, x uint64) uint64 {
	t.Helper()
	cm, err := eng.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := cm.Instantiate(core.Config{Strategy: s, Profile: isa.X86_64()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	res, err := inst.Invoke("run", x)
	if err != nil {
		t.Fatal(err)
	}
	return res[0]
}

// TestDiskTierSecondProcessZeroRecompiles is the acceptance pin: a
// fresh cache (the second-process analog — nothing in memory, same
// artifact directory) must serve the module from disk with ZERO
// compiles, producing the same results as the process that compiled.
func TestDiskTierSecondProcessZeroRecompiles(t *testing.T) {
	dir := t.TempDir()
	m := memModule(t, 21)

	// Process 1: cold compile, artifact published to disk.
	cacheA := modcache.New(0)
	tierA, err := modcache.NewDiskTier(dir)
	if err != nil {
		t.Fatal(err)
	}
	cacheA.SetDiskTier(tierA)
	engA := compiled.NewWAVM()
	engA.SetCache(cacheA)
	want := runModule(t, engA, m, mem.Trap, 5)
	if st := cacheA.Stats(); st.Compiles != 1 {
		t.Fatalf("process 1 compiles = %d, want 1", st.Compiles)
	}
	if st := tierA.Stats(); st.Writes != 1 || st.Misses != 1 {
		t.Fatalf("process 1 disk stats = %+v, want 1 write and 1 miss", st)
	}

	// Process 2: fresh cache, same directory. The disk tier must fully
	// absorb the compile.
	cacheB := modcache.New(0)
	tierB, err := modcache.NewDiskTier(dir)
	if err != nil {
		t.Fatal(err)
	}
	cacheB.SetDiskTier(tierB)
	engB := compiled.NewWAVM()
	engB.SetCache(cacheB)
	for _, s := range mem.Strategies() {
		if got := runModule(t, engB, m, s, 5); got != want {
			t.Fatalf("strategy %v: disk-decoded result %#x, want %#x", s, got, want)
		}
	}
	if st := cacheB.Stats(); st.Compiles != 0 {
		t.Fatalf("process 2 compiles = %d, want 0 (disk tier must absorb them)", st.Compiles)
	}
	if st := tierB.Stats(); st.Hits != 1 {
		t.Fatalf("process 2 disk hits = %d, want 1 (then memory-tier hits)", st.Hits)
	}
}

// TestStatsAndRegistryReadTheSameCounters: a cache and its disk tier
// count each event once, in counters they own. After a compile, a disk
// store, a memory hit and (second cache, same directory) a disk hit,
// Stats() and a registry snapshot agree field for field — for a cache
// attached before the work, twice, and for one attached after it, which
// sees its totals.
func TestStatsAndRegistryReadTheSameCounters(t *testing.T) {
	dir := t.TempDir()
	m := memModule(t, 23)
	reg := obs.NewRegistry()
	check := func(name string, c *modcache.Cache, d *modcache.DiskTier) {
		t.Helper()
		cs, ds, snap := c.Stats(), d.Stats(), reg.Snapshot(false)
		want := map[string]int64{
			"hits": cs.Hits, "misses": cs.Misses, "dedups": cs.Dedups, "evictions": cs.Evictions,
			"compiles": cs.Compiles, "compile_ns_saved": cs.CompileNsSaved,
			"disk/hits": ds.Hits, "disk/misses": ds.Misses, "disk/writes": ds.Writes,
			"disk/corrupt": ds.Corrupt, "disk/errors": ds.Errors,
		}
		for k, v := range want {
			if got := snap.Counters[name+"/"+k]; got != v {
				t.Errorf("%s/%s: registry %d, Stats() %d", name, k, got, v)
			}
		}
		if e, b := snap.Gauges[name+"/entries"], snap.Gauges[name+"/bytes"]; e != cs.Entries || b != cs.Bytes {
			t.Errorf("%s gauges: registry %d entries %d bytes, Stats() %d and %d", name, e, b, cs.Entries, cs.Bytes)
		}
	}
	build := func() (*modcache.Cache, *modcache.DiskTier, *compiled.Engine) {
		c := modcache.New(0)
		d, err := modcache.NewDiskTier(dir)
		if err != nil {
			t.Fatal(err)
		}
		c.SetDiskTier(d)
		eng := compiled.NewWAVM()
		eng.SetCache(c)
		return c, d, eng
	}

	cacheA, tierA, engA := build()
	for i := 0; i < 2; i++ {
		cacheA.AttachObs(reg.Scope("a"))
		tierA.AttachObs(reg.Scope("a").Child("disk"))
	}
	runModule(t, engA, m, mem.Trap, 5) // compile + disk store
	runModule(t, engA, m, mem.Trap, 5) // memory hit
	if cs, ds := cacheA.Stats(), tierA.Stats(); cs.Compiles != 1 || cs.Hits != 1 || ds.Writes != 1 {
		t.Fatalf("first cache: %+v, disk %+v; want 1 compile, 1 hit, 1 write", cs, ds)
	}
	check("a", cacheA, tierA)

	cacheB, tierB, engB := build()
	runModule(t, engB, m, mem.Trap, 5) // disk hit
	if cs, ds := cacheB.Stats(), tierB.Stats(); cs.Compiles != 0 || ds.Hits != 1 {
		t.Fatalf("second cache: %+v, disk %+v; want 0 compiles, 1 disk hit", cs, ds)
	}
	cacheB.AttachObs(reg.Scope("b"))
	tierB.AttachObs(reg.Scope("b").Child("disk"))
	check("b", cacheB, tierB)
	check("a", cacheA, tierA) // untouched by the second cache
}

// TestDiskTierCorruptionRecompiles flips bytes in a published
// artifact: the footer check must reject it, delete the file, fall
// back to a fresh compile, and re-publish a healthy artifact.
func TestDiskTierCorruptionRecompiles(t *testing.T) {
	dir := t.TempDir()
	m := memModule(t, 22)
	cache := modcache.New(0)
	tier, err := modcache.NewDiskTier(dir)
	if err != nil {
		t.Fatal(err)
	}
	cache.SetDiskTier(tier)
	eng := compiled.NewWAVM()
	eng.SetCache(cache)
	want := runModule(t, eng, m, mem.Mprotect, 9)

	files, err := filepath.Glob(filepath.Join(dir, "*.lbc"))
	if err != nil || len(files) != 1 {
		t.Fatalf("artifact files = %v (err %v), want exactly 1", files, err)
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(files[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	// Second process: corruption detected, compile runs, slot heals.
	cache2 := modcache.New(0)
	tier2, err := modcache.NewDiskTier(dir)
	if err != nil {
		t.Fatal(err)
	}
	cache2.SetDiskTier(tier2)
	eng2 := compiled.NewWAVM()
	eng2.SetCache(cache2)
	if got := runModule(t, eng2, m, mem.Mprotect, 9); got != want {
		t.Fatalf("result after corruption %#x, want %#x", got, want)
	}
	st2 := tier2.Stats()
	if st2.Corrupt != 1 || st2.Hits != 0 || st2.Writes != 1 {
		t.Fatalf("disk stats after corruption = %+v, want 1 corrupt, 0 hits, 1 write", st2)
	}
	if st := cache2.Stats(); st.Compiles != 1 {
		t.Fatalf("compiles after corruption = %d, want 1", st.Compiles)
	}

	// Third process: the re-published artifact serves clean.
	cache3 := modcache.New(0)
	tier3, err := modcache.NewDiskTier(dir)
	if err != nil {
		t.Fatal(err)
	}
	cache3.SetDiskTier(tier3)
	eng3 := compiled.NewWAVM()
	eng3.SetCache(cache3)
	if got := runModule(t, eng3, m, mem.Mprotect, 9); got != want {
		t.Fatalf("healed artifact result %#x, want %#x", got, want)
	}
	if st := cache3.Stats(); st.Compiles != 0 {
		t.Fatalf("compiles after heal = %d, want 0", st.Compiles)
	}
}

// TestDisabledBypassesDiskTier: the disable knob must bypass every
// tier. A disabled cache neither reads existing artifacts (a compile
// benchmark must not be served decode cost) nor writes new ones.
func TestDisabledBypassesDiskTier(t *testing.T) {
	dir := t.TempDir()
	m := memModule(t, 23)
	cache := modcache.New(0)
	tier, err := modcache.NewDiskTier(dir)
	if err != nil {
		t.Fatal(err)
	}
	cache.SetDiskTier(tier)
	eng := compiled.NewWAVM()
	eng.SetCache(cache)

	cache.SetEnabled(false)
	runModule(t, eng, m, mem.Trap, 2)
	runModule(t, eng, m, mem.Trap, 2)
	if st := cache.Stats(); st.Compiles != 2 {
		t.Fatalf("disabled compiles = %d, want 2", st.Compiles)
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "*.lbc")); len(files) != 0 {
		t.Fatalf("disabled cache wrote artifacts: %v", files)
	}

	// Publish an artifact while enabled, then disable again: the next
	// compile must not read it.
	cache.SetEnabled(true)
	runModule(t, eng, m, mem.Trap, 2)
	pre := tier.Stats()
	cache.SetEnabled(false)
	runModule(t, eng, m, mem.Trap, 2)
	if st := tier.Stats(); st.Hits != pre.Hits || st.Misses != pre.Misses {
		t.Fatalf("disabled cache touched the disk tier: %+v -> %+v", pre, st)
	}
}

// TestEvictionMidSingleflight pins the interleaving contract: under
// byte pressure that evicts entries the moment they are inserted,
// concurrent requesters across many keys must always receive a
// complete artifact for *their* key — the flight hands out only
// fully-constructed modules, and eviction can only drop complete
// entries. Run under -race via the modcache race target.
func TestEvictionMidSingleflight(t *testing.T) {
	// A budget far below one artifact's estimated size: every insert
	// immediately evicts other residents of its shard. Enough keys
	// that shards are shared (the evictor keeps one entry per shard,
	// so a lone key never evicts).
	c := modcache.New(1)
	const keys = 48
	const waiters = 4
	mods := make([]*wasm.Module, keys)
	for i := range mods {
		mods[i] = testModule(t, int64(100+i))
	}
	var wg sync.WaitGroup
	var bad atomic.Int64
	start := make(chan struct{})
	for round := 0; round < 3; round++ {
		for ki := 0; ki < keys; ki++ {
			for w := 0; w < waiters; w++ {
				wg.Add(1)
				go func(ki int) {
					defer wg.Done()
					<-start
					id := int64(1000 + ki)
					cm, _, err := c.GetOrCompile(mods[ki], "wavm", "o", func() (core.CompiledModule, error) {
						time.Sleep(time.Millisecond) // widen the flight window
						return &stubModule{id: id}, nil
					})
					if err != nil || cm == nil {
						bad.Add(1)
						return
					}
					if sm, ok := cm.(*stubModule); !ok || sm.id != id {
						bad.Add(1)
					}
				}(ki)
			}
		}
	}
	close(start)
	wg.Wait()
	if n := bad.Load(); n != 0 {
		t.Fatalf("%d requesters observed a missing or foreign artifact", n)
	}
	if st := c.Stats(); st.Evictions == 0 {
		t.Fatalf("no evictions under a 1-byte budget (stats %+v); the test exercised nothing", st)
	}
}

// TestOwnerOnlyMissCounting: one uncached key requested by N
// goroutines is ONE miss (the flight owner's); the other N-1 are
// dedups. Waiter-counted misses used to distort hit rates under
// concurrency.
func TestOwnerOnlyMissCounting(t *testing.T) {
	c := modcache.New(0)
	m := testModule(t, 55)
	const goroutines = 12
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			c.GetOrCompile(m, "wavm", "", func() (core.CompiledModule, error) {
				time.Sleep(10 * time.Millisecond)
				return &stubModule{id: 55}, nil
			})
		}()
	}
	close(start)
	wg.Wait()
	st := c.Stats()
	if st.Misses != 1 {
		t.Errorf("misses = %d, want 1 (owner only)", st.Misses)
	}
	if st.Dedups != goroutines-1 {
		t.Errorf("dedups = %d, want %d", st.Dedups, goroutines-1)
	}
	if st.Compiles != 1 {
		t.Errorf("compiles = %d, want 1", st.Compiles)
	}
}

// TestDiskTierKeySeparation: the same module under different codegen
// knobs lands in different files, and each second-process run decodes
// the artifact that matches its own knobs — the key echo in the
// header makes cross-serving structurally impossible.
func TestDiskTierKeySeparation(t *testing.T) {
	dir := t.TempDir()
	m := memModule(t, 31)

	configure := func(eng *compiled.Engine, bare bool) {
		if bare {
			eng.SetCodegen(core.Codegen{}) // elision + register tier off
		}
	}
	want := make(map[bool]uint64)
	for _, bare := range []bool{false, true} {
		cache := modcache.New(0)
		tier, err := modcache.NewDiskTier(dir)
		if err != nil {
			t.Fatal(err)
		}
		cache.SetDiskTier(tier)
		eng := compiled.NewWAVM()
		configure(eng, bare)
		eng.SetCache(cache)
		want[bare] = runModule(t, eng, m, mem.Trap, 3)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*.lbc"))
	if len(files) != 2 {
		t.Fatalf("artifact files = %v, want 2 (one per codegen key)", files)
	}
	for _, f := range files {
		if !strings.HasSuffix(f, ".lbc") {
			t.Fatalf("unexpected file %s", f)
		}
	}
	for _, bare := range []bool{false, true} {
		cache := modcache.New(0)
		tier, err := modcache.NewDiskTier(dir)
		if err != nil {
			t.Fatal(err)
		}
		cache.SetDiskTier(tier)
		eng := compiled.NewWAVM()
		configure(eng, bare)
		eng.SetCache(cache)
		if got := runModule(t, eng, m, mem.Trap, 3); got != want[bare] {
			t.Fatalf("bare=%v: disk result %#x, want %#x", bare, got, want[bare])
		}
		if st := cache.Stats(); st.Compiles != 0 {
			t.Fatalf("bare=%v: compiles = %d, want 0", bare, st.Compiles)
		}
	}
}
