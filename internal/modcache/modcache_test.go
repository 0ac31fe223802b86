package modcache_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"leapsandbounds/internal/compiled"
	"leapsandbounds/internal/core"
	"leapsandbounds/internal/isa"
	"leapsandbounds/internal/mem"
	"leapsandbounds/internal/modcache"
	"leapsandbounds/internal/wasm"
	g "leapsandbounds/internal/wasmgen"
)

// testModule builds a small valid module whose content varies with
// seed, so different seeds produce different content hashes and equal
// seeds produce byte-identical modules.
func testModule(t testing.TB, seed int64) *wasm.Module {
	t.Helper()
	mb := g.NewModule()
	f := mb.Func("run", wasm.I64)
	x := f.ParamI64("x")
	f.Body(g.Return(g.Mul(g.Add(g.Get(x), g.I64(seed)), g.I64(2654435761))))
	mb.Export("run", f)
	m, err := mb.Module()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// stubModule is a placeholder compiled artifact for cache-only tests.
type stubModule struct{ id int64 }

func (s *stubModule) Instantiate(core.Config, core.Imports) (core.Instance, error) {
	return nil, fmt.Errorf("stub %d", s.id)
}

func (s *stubModule) InstantiateSnapshot(core.Config, core.Imports, *core.StateSnapshot) (core.Instance, error) {
	return nil, fmt.Errorf("stub %d", s.id)
}

func compileStub(id int64) func() (core.CompiledModule, error) {
	return func() (core.CompiledModule, error) { return &stubModule{id: id}, nil }
}

func TestHitMissAndContentAddressing(t *testing.T) {
	c := modcache.New(0)
	m := testModule(t, 1)

	cm1, cached, err := c.GetOrCompile(m, "wavm", "o1", compileStub(1))
	if err != nil || cached {
		t.Fatalf("first call: cached=%v err=%v, want fresh compile", cached, err)
	}
	cm2, cached, err := c.GetOrCompile(m, "wavm", "o1", compileStub(2))
	if err != nil || !cached {
		t.Fatalf("second call: cached=%v err=%v, want hit", cached, err)
	}
	if cm1 != cm2 {
		t.Fatal("hit returned a different artifact")
	}

	// Content addressing: a structurally identical module built
	// separately hits; a different module, engine or opts misses.
	if _, cached, _ = c.GetOrCompile(testModule(t, 1), "wavm", "o1", compileStub(3)); !cached {
		t.Error("identical content from a different pointer should hit")
	}
	if _, cached, _ = c.GetOrCompile(testModule(t, 2), "wavm", "o1", compileStub(4)); cached {
		t.Error("different content should miss")
	}
	if _, cached, _ = c.GetOrCompile(m, "wasmtime", "o1", compileStub(5)); cached {
		t.Error("different engine should miss")
	}
	if _, cached, _ = c.GetOrCompile(m, "wavm", "o2", compileStub(6)); cached {
		t.Error("different opts should miss")
	}

	st := c.Stats()
	if st.Hits != 2 || st.Misses != 4 || st.Compiles != 4 {
		t.Errorf("stats = %+v, want 2 hits, 4 misses, 4 compiles", st)
	}
}

// TestSingleflight is the dedup guarantee: N concurrent requests for
// the same uncompiled key run the compile function exactly once. Run
// with -race (the Makefile's race target includes this package).
func TestSingleflight(t *testing.T) {
	c := modcache.New(0)
	m := testModule(t, 7)
	var compiles atomic.Int64
	compile := func() (core.CompiledModule, error) {
		compiles.Add(1)
		time.Sleep(20 * time.Millisecond) // widen the race window
		return &stubModule{id: 7}, nil
	}

	const goroutines = 16
	var wg sync.WaitGroup
	results := make([]core.CompiledModule, goroutines)
	errs := make([]error, goroutines)
	start := make(chan struct{})
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			results[i], _, errs[i] = c.GetOrCompile(m, "wavm", "", compile)
		}(i)
	}
	close(start)
	wg.Wait()

	if n := compiles.Load(); n != 1 {
		t.Fatalf("compile ran %d times, want exactly 1", n)
	}
	for i := 0; i < goroutines; i++ {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if results[i] != results[0] {
			t.Fatalf("goroutine %d got a different artifact", i)
		}
	}
	st := c.Stats()
	if st.Compiles != 1 {
		t.Errorf("Compiles = %d, want 1", st.Compiles)
	}
	// Every goroutine that did not compile either joined the flight
	// (dedup) or arrived after insertion (hit).
	if st.Dedups+st.Hits != goroutines-1 {
		t.Errorf("dedups(%d) + hits(%d) = %d, want %d",
			st.Dedups, st.Hits, st.Dedups+st.Hits, goroutines-1)
	}
	if st.CompileNsSaved <= 0 {
		t.Errorf("CompileNsSaved = %d, want > 0", st.CompileNsSaved)
	}
}

func TestDisabled(t *testing.T) {
	c := modcache.New(0)
	c.SetEnabled(false)
	m := testModule(t, 3)
	for i := 0; i < 3; i++ {
		_, cached, err := c.GetOrCompile(m, "wavm", "", compileStub(int64(i)))
		if err != nil || cached {
			t.Fatalf("call %d: cached=%v err=%v, want uncached compile", i, cached, err)
		}
	}
	if _, ok := c.Peek(m, "wavm", ""); ok {
		t.Error("Peek on a disabled cache should miss")
	}
	st := c.Stats()
	if st.Compiles != 3 || st.Hits != 0 || st.Entries != 0 {
		t.Errorf("stats = %+v, want 3 compiles, nothing cached", st)
	}

	// Re-enabling resumes normal miss-then-hit behaviour.
	c.SetEnabled(true)
	if _, cached, _ := c.GetOrCompile(m, "wavm", "", compileStub(9)); cached {
		t.Error("first enabled call should miss")
	}
	if _, cached, _ := c.GetOrCompile(m, "wavm", "", compileStub(10)); !cached {
		t.Error("second enabled call should hit")
	}
}

func TestPeek(t *testing.T) {
	c := modcache.New(0)
	m := testModule(t, 4)
	if _, ok := c.Peek(m, "wavm", ""); ok {
		t.Fatal("peek before compile should miss")
	}
	before := c.Stats()
	if before.Misses != 0 {
		t.Fatalf("failed peek charged a miss: %+v", before)
	}
	want, _, err := c.GetOrCompile(m, "wavm", "", compileStub(4))
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c.Peek(m, "wavm", "")
	if !ok || got != want {
		t.Fatalf("peek after compile = (%v, %v), want the cached artifact", got, ok)
	}
	if st := c.Stats(); st.Hits != 1 {
		t.Errorf("successful peek should count as a hit: %+v", st)
	}
}

func TestEvictionBoundsBytes(t *testing.T) {
	// Budget small enough that a few modules overflow a shard.
	// What the cache charges for one of these modules: its Bytes gauge
	// after holding exactly one.
	probe := modcache.New(0)
	if _, _, err := probe.GetOrCompile(testModule(t, 0), "wavm", "", compileStub(0)); err != nil {
		t.Fatal(err)
	}
	per := probe.Stats().Bytes
	c := modcache.New(per * 32) // 2 entries per shard across 16 shards
	for i := int64(0); i < 64; i++ {
		if _, _, err := c.GetOrCompile(testModule(t, i), "wavm", "", compileStub(i)); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Error("expected evictions with 64 entries against a 32-entry budget")
	}
	if st.Entries >= 64 {
		t.Errorf("Entries = %d, want < 64 after eviction", st.Entries)
	}
	if st.Entries != 64-st.Evictions {
		t.Errorf("Entries(%d) != inserted(64) - Evictions(%d)", st.Entries, st.Evictions)
	}
}

func TestPurge(t *testing.T) {
	c := modcache.New(0)
	for i := int64(0); i < 8; i++ {
		if _, _, err := c.GetOrCompile(testModule(t, i), "wavm", "", compileStub(i)); err != nil {
			t.Fatal(err)
		}
	}
	c.Purge()
	st := c.Stats()
	if st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("after purge: entries=%d bytes=%d, want 0/0", st.Entries, st.Bytes)
	}
	if _, cached, _ := c.GetOrCompile(testModule(t, 0), "wavm", "", compileStub(0)); cached {
		t.Error("purged entry should miss")
	}
}

func TestCompileErrorNotCached(t *testing.T) {
	c := modcache.New(0)
	m := testModule(t, 5)
	wantErr := fmt.Errorf("boom")
	_, _, err := c.GetOrCompile(m, "wavm", "", func() (core.CompiledModule, error) {
		return nil, wantErr
	})
	if err != wantErr {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
	// The failure is not cached: the next call compiles again and can
	// succeed.
	cm, cached, err := c.GetOrCompile(m, "wavm", "", compileStub(5))
	if err != nil || cached || cm == nil {
		t.Fatalf("retry after error: cm=%v cached=%v err=%v", cm, cached, err)
	}
}

func TestHitRate(t *testing.T) {
	c := modcache.New(0)
	before := c.Stats()
	m := testModule(t, 6)
	c.GetOrCompile(m, "wavm", "", compileStub(6))
	for i := 0; i < 3; i++ {
		c.GetOrCompile(m, "wavm", "", compileStub(6))
	}
	after := c.Stats()
	if got := modcache.HitRate(before, after); got != 0.75 {
		t.Errorf("hit rate = %v, want 0.75", got)
	}
	if got := modcache.HitRate(after, after); got != 0 {
		t.Errorf("hit rate over empty window = %v, want 0", got)
	}
}

func TestContentHash(t *testing.T) {
	m := testModule(t, 42)
	hash1, err := m.ContentHash()
	if err != nil {
		t.Fatal(err)
	}
	if hash1 == (wasm.Hash{}) {
		t.Fatal("content hash is zero")
	}
	hash2, err := testModule(t, 42).ContentHash()
	if err != nil {
		t.Fatal(err)
	}
	if hash1 != hash2 {
		t.Fatal("identical modules hash differently")
	}
	if hash1.String() == "" {
		t.Fatal("hash string is empty")
	}
}

// TestRealEngineRoundTrip exercises the cache with a real compile
// pipeline end to end: the artifact returned by a cache hit must
// instantiate and produce the same result as the fresh compile did.
func TestRealEngineRoundTrip(t *testing.T) {
	// A private cache: tests must not disturb the process-global one.
	c := modcache.New(0)
	eng := compiled.NewWAVM()
	eng.SetCache(c)
	m := testModule(t, 11)

	run := func() uint64 {
		t.Helper()
		cm, err := eng.Compile(m)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := cm.Instantiate(core.Config{
			Strategy: mem.Trap, Profile: isa.X86_64(),
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer inst.Close()
		res, err := inst.Invoke("run", 123)
		if err != nil {
			t.Fatal(err)
		}
		return res[0]
	}

	first := run()
	second := run()
	if first != second {
		t.Fatalf("cached artifact result %#x, fresh %#x", second, first)
	}
	st := c.Stats()
	if st.Compiles != 1 || st.Hits != 1 {
		t.Errorf("stats = %+v, want 1 compile and 1 hit", st)
	}
}
