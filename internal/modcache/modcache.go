// Package modcache is the process-wide, content-addressed cache of
// compiled WebAssembly modules. Real runtimes treat compilation as a
// cacheable artifact (Wasmtime ships an on-disk module cache); this
// repository's figure sweeps recompile the same ~29 workload modules
// hundreds of times without one, and the ROADMAP's serving scenario —
// instance churn for one function deployed by many users — amortizes
// exactly this cost.
//
// The cache maps (module content hash, engine name, codegen-affecting
// options) → core.CompiledModule. The key deliberately excludes
// instantiation-time configuration: bounds-checking strategy,
// hardware profile and address space are all applied at Instantiate,
// so one compiled artifact serves every strategy (the invariant is
// enforced by TestCompiledModuleInstantiationIndependent in
// internal/compiled).
//
// Design:
//
//   - lock striping: keys are sharded across independent mutexes so
//     concurrent workers compiling different modules never contend;
//   - singleflight: N goroutines requesting the same uncompiled key
//     trigger exactly one compile; the rest block on its result (the
//     paper's harness spawns per-thread workers that would otherwise
//     race to compile the same module);
//   - LRU bounding: each shard evicts least-recently-used artifacts
//     past its byte budget (sizes are estimates; see estimateSize);
//   - observability: the hit/miss/evict/dedup counters and
//     compile-ns-saved are obs counters the cache owns; Stats()
//     snapshots them, and AttachObs registers the same objects in a
//     run registry;
//   - a Disable knob (SetEnabled) so benchmarks that measure compile
//     cost still can.
//
// Cached artifacts may retain a pointer to the engine instance that
// first compiled them. That is sound for the compiled and interp
// engines because their Engine values are immutable configuration
// (name + flags) with no lifecycle; the tiered engine, which owns
// background workers and a Close method, therefore caches only its
// per-tier artifacts, never its own modules.
package modcache

import (
	"container/list"
	"sync"
	"sync/atomic"
	"time"

	"leapsandbounds/internal/core"
	"leapsandbounds/internal/obs"
	"leapsandbounds/internal/wasm"
)

// Key addresses one compiled artifact.
type Key struct {
	// Module is the content hash of the wasm binary.
	Module wasm.Hash
	// Engine is the compiling engine's name ("wavm", "wasmtime",
	// "interp", "wasm3"); distinct engine configurations must use
	// distinct names or distinct Opts.
	Engine string
	// Opts fingerprints codegen-affecting engine options.
	Opts string
}

// defaultMaxBytes bounds the shared cache: generous next to the
// repository's whole workload suite (a few MiB of closures per
// engine) yet small next to the address-space budgets the harness
// simulates.
const defaultMaxBytes = 256 << 20

// numShards stripes the key space; 16 is plenty for GOMAXPROCS-sized
// worker pools while keeping per-shard LRU lists coherent.
const numShards = 16

type entry struct {
	key       Key
	cm        core.CompiledModule
	size      int64
	compileNs int64
	elem      *list.Element
}

type shard struct {
	mu    sync.Mutex
	items map[Key]*entry
	lru   list.List // front = most recently used
	bytes int64
}

// flight is one in-progress compile that concurrent requesters of
// the same key wait on.
type flight struct {
	done      chan struct{}
	cm        core.CompiledModule
	err       error
	compileNs int64
}

// Cache is a sharded, lock-striped, LRU-bounded compiled-module
// cache with singleflight compile deduplication. The zero value is
// not usable; construct with New.
type Cache struct {
	shardMax int64 // per-shard byte budget
	shards   [numShards]shard
	enabled  atomic.Bool

	// disk is the optional on-disk artifact tier (disk.go), consulted
	// between the memory tier and compilation by GetOrCompileArtifact.
	disk atomic.Pointer[DiskTier]

	flightMu sync.Mutex
	flights  map[Key]*flight

	hits           obs.Counter
	misses         obs.Counter
	dedups         obs.Counter
	evictions      obs.Counter
	compiles       obs.Counter
	compileNsSaved obs.Counter
	entries        obs.Gauge
	bytes          obs.Gauge
}

// New returns an enabled cache bounded to maxBytes (estimated;
// <= 0 means defaultMaxBytes).
func New(maxBytes int64) *Cache {
	if maxBytes <= 0 {
		maxBytes = defaultMaxBytes
	}
	c := &Cache{
		shardMax: maxBytes / numShards,
		flights:  make(map[Key]*flight),
	}
	for i := range c.shards {
		c.shards[i].items = make(map[Key]*entry)
	}
	c.enabled.Store(true)
	return c
}

// shared is the process-wide cache every engine uses by default.
var shared = New(defaultMaxBytes)

// Shared returns the process-wide cache.
func Shared() *Cache { return shared }

// SetEnabled is the disable knob: a disabled cache compiles on every
// call (no lookups, no insertion, no deduplication), which is what
// benchmarks measuring compile cost want. Counters keep accumulating
// compiles so callers can still observe the work done.
func (c *Cache) SetEnabled(v bool) { c.enabled.Store(v) }

// AttachObs registers the cache's own counters and gauges under sc
// (typically a "modcache" scope of the run registry): a snapshot of
// that registry and Stats() read the same words. Safe to call at any
// time; a registry attached late sees the totals since the cache was
// made.
func (c *Cache) AttachObs(sc *obs.Scope) {
	sc.RegisterCounter("hits", &c.hits)
	sc.RegisterCounter("misses", &c.misses)
	sc.RegisterCounter("dedups", &c.dedups)
	sc.RegisterCounter("evictions", &c.evictions)
	sc.RegisterCounter("compiles", &c.compiles)
	sc.RegisterCounter("compile_ns_saved", &c.compileNsSaved)
	sc.RegisterGauge("entries", &c.entries)
	sc.RegisterGauge("bytes", &c.bytes)
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	Hits, Misses, Dedups, Evictions, Compiles int64
	// CompileNsSaved sums, over every hit and deduplicated request,
	// the nanoseconds the original compile of that artifact took.
	CompileNsSaved int64
	Entries, Bytes int64
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:           c.hits.Load(),
		Misses:         c.misses.Load(),
		Dedups:         c.dedups.Load(),
		Evictions:      c.evictions.Load(),
		Compiles:       c.compiles.Load(),
		CompileNsSaved: c.compileNsSaved.Load(),
		Entries:        c.entries.Load(),
		Bytes:          c.bytes.Load(),
	}
}

// HitRate returns hits/(hits+misses) over the deltas of two
// snapshots (0 when no lookups happened).
func HitRate(before, after Stats) float64 {
	h := after.Hits - before.Hits
	m := after.Misses - before.Misses
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

// Purge drops every cached artifact (cumulative counters are kept).
func (c *Cache) Purge() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		c.entries.Add(-int64(len(s.items)))
		c.bytes.Add(-s.bytes)
		for k := range s.items {
			delete(s.items, k)
		}
		s.lru.Init()
		s.bytes = 0
		s.mu.Unlock()
	}
}

// estimateSize approximates the in-memory footprint of one compiled
// artifact for LRU accounting: compiled closure code scales with the
// instruction count, plus data segments carried by the module, plus a
// fixed per-module overhead. Estimates only need to be consistent,
// not exact — they bound the cache, they don't meter it.
func estimateSize(m *wasm.Module) int64 {
	var n int64 = 4096
	for i := range m.Code {
		n += int64(len(m.Code[i].Body)) * 48
	}
	for i := range m.Data {
		n += int64(len(m.Data[i].Data))
	}
	return n
}

func (c *Cache) shardFor(k Key) *shard {
	// The module hash is uniformly distributed; fold in the first
	// engine-name byte so the same module under different engines can
	// land on different shards.
	idx := uint(k.Module[0])
	if len(k.Engine) > 0 {
		idx += uint(k.Engine[0])
	}
	return &c.shards[idx%numShards]
}

// lookup returns the cached artifact for k, updating LRU order and
// hit accounting.
func (c *Cache) lookup(k Key) (core.CompiledModule, bool) {
	s := c.shardFor(k)
	s.mu.Lock()
	e, ok := s.items[k]
	if ok {
		s.lru.MoveToFront(e.elem)
	}
	s.mu.Unlock()
	if !ok {
		return nil, false
	}
	c.addHit(e.compileNs)
	return e.cm, true
}

func (c *Cache) addHit(savedNs int64) {
	c.hits.Inc()
	c.compileNsSaved.Add(savedNs)
}

func (c *Cache) insert(k Key, cm core.CompiledModule, size, compileNs int64) {
	s := c.shardFor(k)
	s.mu.Lock()
	if _, ok := s.items[k]; ok {
		// A racing disabled->enabled transition or Purge interleaving
		// can double-insert; keep the resident entry.
		s.mu.Unlock()
		return
	}
	e := &entry{key: k, cm: cm, size: size, compileNs: compileNs}
	e.elem = s.lru.PushFront(e)
	s.items[k] = e
	s.bytes += size
	c.entries.Add(1)
	c.bytes.Add(size)
	var evicted int64
	for s.bytes > c.shardMax && s.lru.Len() > 1 {
		back := s.lru.Back()
		v := back.Value.(*entry)
		s.lru.Remove(back)
		delete(s.items, v.key)
		s.bytes -= v.size
		c.entries.Add(-1)
		c.bytes.Add(-v.size)
		evicted++
	}
	s.mu.Unlock()
	c.evictions.Add(evicted)
}

// SetDiskTier attaches d as the on-disk artifact tier behind the
// memory tier (nil detaches). Only GetOrCompileArtifact calls with a
// codec consult it; GetOrCompile never touches disk.
func (c *Cache) SetDiskTier(d *DiskTier) { c.disk.Store(d) }

// GetOrCompile implements core.ModuleCache. On a hit it returns the
// cached artifact; on a miss it runs compile — deduplicated, so
// concurrent misses on the same key run it exactly once — and caches
// the result. A disabled cache, or a module whose content hash cannot
// be computed, falls through to a plain compile.
func (c *Cache) GetOrCompile(m *wasm.Module, engine, opts string,
	compile func() (core.CompiledModule, error)) (core.CompiledModule, bool, error) {
	cm, prov, err := c.GetOrCompileArtifact(m, engine, opts, nil, compile)
	return cm, prov != core.FromCompile, err
}

// GetOrCompileArtifact implements core.ModuleCache: the resolution
// chain is memory → disk → compile, with the whole miss path (disk
// probe included) inside one singleflight so concurrent requesters of
// an uncached key cost one disk read or one compile, never N.
//
// Accounting: exactly one miss is counted per flight — the owner's.
// Waiters count as dedups and are served from the flight (provenance
// FromMemory: no work of their own ran). A disk hit decodes without
// touching the Compiles counter, which is what lets tests pin the
// zero-recompile property of a warm disk tier.
//
// A disabled cache bypasses every tier, disk included: SetEnabled is
// the "measure the compile" knob, and a benchmark that asked for
// compile cost must not be served decode cost instead.
func (c *Cache) GetOrCompileArtifact(m *wasm.Module, engine, opts string, codec core.ArtifactCodec,
	compile func() (core.CompiledModule, error)) (core.CompiledModule, core.Provenance, error) {
	if !c.enabled.Load() {
		cm, err := c.timedCompile(compile)
		return cm, core.FromCompile, err
	}
	hash, err := m.ContentHash()
	if err != nil {
		cm, cerr := c.timedCompile(compile)
		return cm, core.FromCompile, cerr
	}
	k := Key{Module: hash, Engine: engine, Opts: opts}
	if cm, ok := c.lookup(k); ok {
		return cm, core.FromMemory, nil
	}

	// Singleflight: first requester owns the miss path, the rest wait.
	c.flightMu.Lock()
	if f, ok := c.flights[k]; ok {
		c.flightMu.Unlock()
		c.dedups.Inc()
		<-f.done
		if f.err == nil {
			// The waiter was spared a compile of known cost.
			c.compileNsSaved.Add(f.compileNs)
		}
		return f.cm, core.FromMemory, f.err
	}
	f := &flight{done: make(chan struct{})}
	c.flights[k] = f
	c.flightMu.Unlock()

	// Owner: the one true miss for this key (waiters above are dedups,
	// not misses — they are served from this flight's result).
	c.misses.Inc()

	prov := core.FromCompile
	if d := c.disk.Load(); d != nil && codec != nil {
		if payload, ok := d.load(k); ok {
			if cm, derr := codec.DecodeArtifact(m, payload); derr == nil {
				f.cm = cm
				prov = core.FromDisk
			} else {
				// A payload that passed the footer but fails the codec is
				// corruption all the same (e.g. a stale artifact layout):
				// delete so the slot heals on the next store.
				d.decodeCorrupt(k)
			}
		}
	}
	if f.cm == nil && f.err == nil {
		t0 := time.Now()
		f.cm, f.err = compile()
		f.compileNs = time.Since(t0).Nanoseconds()
		c.compiles.Inc()
		if f.err == nil {
			if d := c.disk.Load(); d != nil && codec != nil {
				if payload, eerr := codec.EncodeArtifact(f.cm); eerr == nil {
					d.store(k, payload)
				}
			}
		}
	}
	// Publish to the memory tier before un-flighting: with the flight
	// deleted first there would be a window in which a new requester
	// misses both the shard and the flight map and starts a redundant
	// compile. The entry becomes visible only after f.cm is fully
	// constructed, so an eviction racing this insert (mid-singleflight,
	// under byte pressure) can only drop a complete artifact — waiters
	// still get f.cm from the flight, and later requesters recompile;
	// nobody can observe a half-built module.
	if f.err == nil {
		c.insert(k, f.cm, estimateSize(m), f.compileNs)
	}
	c.flightMu.Lock()
	delete(c.flights, k)
	c.flightMu.Unlock()
	close(f.done)
	return f.cm, prov, f.err
}

// Peek implements core.ModuleCache: it returns the cached artifact
// for (m, engine, opts) without compiling. A successful peek counts
// as a hit (the caller is about to skip a compile because of it); a
// failed one counts nothing — peeks are opportunistic probes, and
// charging them as misses would distort the hit rate of the compile
// path.
func (c *Cache) Peek(m *wasm.Module, engine, opts string) (core.CompiledModule, bool) {
	if !c.enabled.Load() {
		return nil, false
	}
	hash, err := m.ContentHash()
	if err != nil {
		return nil, false
	}
	return c.lookup(Key{Module: hash, Engine: engine, Opts: opts})
}

func (c *Cache) timedCompile(compile func() (core.CompiledModule, error)) (core.CompiledModule, error) {
	cm, err := compile()
	c.compiles.Inc()
	return cm, err
}

var _ core.ModuleCache = (*Cache)(nil)
