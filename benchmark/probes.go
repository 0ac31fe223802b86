package main

import (
	"bytes"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	leaps "leapsandbounds"
	"leapsandbounds/internal/compiled"
	"leapsandbounds/internal/core"
	"leapsandbounds/internal/flatten"
	"leapsandbounds/internal/hazard"
	"leapsandbounds/internal/mem"
	"leapsandbounds/internal/modcache"
	"leapsandbounds/internal/rir"
	"leapsandbounds/internal/tiered"
	"leapsandbounds/internal/validate"
	"leapsandbounds/internal/vmm"
	"leapsandbounds/internal/wasm"
)

// Probes are tight loops around one layer's public functions. They run
// in every traced run, whatever the workload, and never in an untraced
// one, so they cost the end-to-end numbers nothing.

// layerValues collects per-layer metric values by name, plus the names
// of counts that did not repeat within the run.
type layerValues struct {
	v      map[string]float64
	uneven []string
}

func (lv *layerValues) set(name string, v float64) { lv.v[name] = v }

// count records a count taken twice; counts that differ between the two
// takes are flagged as non-deterministic.
func (lv *layerValues) count(name string, a, b int64) {
	lv.v[name] = float64(a)
	if a != b {
		lv.uneven = append(lv.uneven, fmt.Sprintf("%s: %d vs %d", name, a, b))
	}
}

// stopwatch times one probe step in host-normalised units (calib.go).
type stopwatch struct {
	factor float64
	t0     time.Time
}

func startWatch() stopwatch { return stopwatch{host.factor(), time.Now()} }

// in returns the time since the start, normalised, in unit d.
func (w stopwatch) in(d time.Duration) float64 {
	return w.factor * float64(time.Since(w.t0)) / float64(d)
}

// medianOf times f n times and returns the median duration in unit d.
func medianOf(n int, d time.Duration, f func()) float64 {
	xs := make([]float64, n)
	for i := range xs {
		w := startWatch()
		f()
		xs[i] = w.in(d)
	}
	return median(xs)
}

const pipelinePasses = 3

// compileCounterNames are the counters the compile pipeline exports, in
// the order compileCounters reads them.
var compileCounterNames = []string{
	"rir.ops_in", "rir.ops_out", "rir.fused_cmpbr", "rir.fused_ldop", "rir.regs_allocated",
	"compiled.bce_checks_emitted", "compiled.bce_checks_elided", "compiled.bce_hoisted",
}

func compileCounters() []int64 {
	r, b := rir.Stats(), compiled.Stats()
	return []int64{r.OpsIn, r.OpsOut, r.FusedCmpBr, r.FusedLdOp, r.RegsAllocated, b.ChecksEmitted, b.ChecksElided, b.Hoisted}
}

// probePipeline replays the compile pipeline over the seeded corpus,
// stage by stage, through the stages' public functions.
func probePipeline(lv *layerValues, seed int64) error {
	corpus, err := genCorpus(seed, corpusFuncCounts)
	if err != nil {
		return err
	}
	again, err := genCorpus(seed, corpusFuncCounts)
	if err != nil {
		return err
	}
	// bytesB counts only what the second generation reproduced exactly.
	var bytesA, bytesB int64
	for i := range corpus {
		bytesA += int64(len(corpus[i].bytes))
		if bytes.Equal(corpus[i].bytes, again[i].bytes) {
			bytesB += int64(len(again[i].bytes))
		}
	}
	lv.count("wasm.module_bytes", bytesA, bytesB)

	stage := map[string][]float64{}
	// Per pass: flatten's op count, then one delta per compile counter.
	var flattenOps [pipelinePasses]int64
	var counters [pipelinePasses][]int64
	for pass := 0; pass < pipelinePasses; pass++ {
		us := map[string]float64{}
		counters[pass] = make([]int64, len(compileCounterNames))
		timed := func(name string, f func()) {
			w := startWatch()
			f()
			us[name] += w.in(time.Microsecond)
		}
		for _, cmod := range corpus {
			var m *wasm.Module
			var err error
			timed("wasm.decode_us", func() { m, err = wasm.Decode(cmod.bytes) })
			if err != nil {
				return err
			}
			timed("validate.module_us", func() { err = validate.Module(m) })
			if err != nil {
				return err
			}
			imported := uint32(m.NumImportedFuncs())
			for i := range m.Code {
				var ff *flatten.Func
				timed("flatten.module_us", func() { ff, err = flatten.Flatten(m, imported+uint32(i), &m.Code[i]) })
				if err != nil {
					return err
				}
				flattenOps[pass] += int64(len(ff.Code))
				var ir []rir.Inst
				timed("rir.build_us", func() { ir, err = rir.Build(ff) })
				if err != nil {
					return err
				}
				timed("rir.optimize_us", func() { ir = rir.Compact(rir.Optimize(ir, ff.NumLocals)) })
				timed("rir.lower_us", func() { ir, _ = rir.Lower(ir, ff.NumLocals) })
				timed("rir.fusemem_us", func() { rir.FuseMem(ir) })
			}
			// Counters are read around the real compile only: the replay
			// above also bumps the fusion counters.
			before := compileCounters()
			timed("compiled.compile_us.wavm", func() { _, err = coldCompile(wavm, m) })
			if err != nil {
				return err
			}
			for i, after := range compileCounters() {
				counters[pass][i] += after - before[i]
			}
			timed("compiled.compile_us.wasmtime", func() { _, err = coldCompile(wasmtime, m) })
			if err != nil {
				return err
			}
			timed("interp.compile_us", func() { _, err = coldCompile(wasm3, m) })
			if err != nil {
				return err
			}
		}
		us["compiled.codegen_us.wavm"] = us["compiled.compile_us.wavm"] - us["validate.module_us"] -
			us["flatten.module_us"] - us["rir.build_us"] - us["rir.optimize_us"] - us["rir.lower_us"] - us["rir.fusemem_us"]
		for k, v := range us {
			stage[k] = append(stage[k], v)
		}
	}
	for k, xs := range stage {
		lv.set(k, median(xs))
	}
	lv.set("wasm.decode_mb_s", float64(bytesA)/lv.v["wasm.decode_us"])
	lv.count("flatten.ops_out", flattenOps[0], flattenOps[1])
	for i, name := range compileCounterNames {
		lv.count(name, counters[0][i], counters[1][i])
	}
	return probeCache(lv, corpus)
}

// artifactCodec is the disk tier's view of an engine, declared here for
// the same reason as cacheSetter.
type artifactCodec interface {
	EncodeArtifact(leaps.CompiledModule) ([]byte, error)
	DecodeArtifact(*leaps.Module, []byte) (leaps.CompiledModule, error)
}

// probeCache measures the compile cache's memory and disk tiers on a
// private cache over the corpus, and the engine's artifact codec.
func probeCache(lv *layerValues, corpus []corpusModule) error {
	var mods []*leaps.Module
	for _, cmod := range corpus {
		m, err := leaps.DecodeModule(cmod.bytes)
		if err != nil {
			return err
		}
		mods = append(mods, m)
	}
	// compileAll compiles the corpus on a new wavm engine attached to
	// cache (nil: detached) and returns the total µs.
	compileAll := func(cache core.ModuleCache) (float64, error) {
		eng, closeEng, err := leaps.NewEngine(wavm)
		if err != nil {
			return 0, err
		}
		defer closeEng()
		eng.(cacheSetter).SetCache(cache)
		w := startWatch()
		for _, m := range mods {
			if _, err := eng.Compile(m); err != nil {
				return 0, err
			}
		}
		return w.in(time.Microsecond), nil
	}
	dir, err := os.MkdirTemp(outDir, "disktier-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var bare, miss, hit, store, load []float64
	var ratio float64
	for pass := 0; pass < pipelinePasses; pass++ {
		t, err := compileAll(nil)
		if err != nil {
			return err
		}
		bare = append(bare, t)
		cache := modcache.New(1 << 30)
		before := cache.Stats()
		if t, err = compileAll(cache); err != nil {
			return err
		}
		miss = append(miss, t)
		if t, err = compileAll(cache); err != nil {
			return err
		}
		hit = append(hit, t*1e3/float64(len(mods)))
		ratio = modcache.HitRate(before, cache.Stats())

		tier, err := modcache.NewDiskTier(fmt.Sprintf("%s/%d", dir, pass))
		if err != nil {
			return err
		}
		cold := modcache.New(1 << 30)
		cold.SetDiskTier(tier)
		if t, err = compileAll(cold); err != nil {
			return err
		}
		store = append(store, t)
		warm := modcache.New(1 << 30)
		warm.SetDiskTier(tier)
		if t, err = compileAll(warm); err != nil {
			return err
		}
		load = append(load, t)
		if got := tier.Stats().Hits; got != int64(len(mods)) {
			return fmt.Errorf("disk tier served %d of %d modules", got, len(mods))
		}
	}
	lv.set("modcache.hit_ns", median(hit))
	lv.set("modcache.miss_overhead_us", median(miss)-median(bare))
	lv.set("modcache.disk_store_us", median(store)-median(miss))
	lv.set("modcache.disk_load_us", median(load))
	lv.set("modcache.hit_ratio", ratio)

	eng, closeEng, err := leaps.NewEngine(wavm)
	if err != nil {
		return err
	}
	defer closeEng()
	codec, ok := eng.(artifactCodec)
	if !ok {
		return fmt.Errorf("engine %s has no artifact codec", wavm)
	}
	var enc, dec []float64
	for pass := 0; pass < pipelinePasses; pass++ {
		var encUs, decUs float64
		for _, m := range mods {
			cm, err := eng.Compile(m)
			if err != nil {
				return err
			}
			w := startWatch()
			blob, err := codec.EncodeArtifact(cm)
			encUs += w.in(time.Microsecond)
			if err != nil {
				return err
			}
			w = startWatch()
			if _, err := codec.DecodeArtifact(m, blob); err != nil {
				return err
			}
			decUs += w.in(time.Microsecond)
		}
		enc, dec = append(enc, encUs), append(dec, decUs)
	}
	lv.set("compiled.artifact_encode_us", median(enc))
	lv.set("compiled.artifact_decode_us", median(dec))
	return nil
}

// probeSize sizes the probes; tests shrink it.
var probeSize = struct {
	accesses  int // per strategy and direction, ≥ 1e7
	mappings  int // memories and 64 MiB mappings made per timing
	hazardOps int
	retireOps int
}{1 << 24, 15, 1 << 20, 1 << 14}

const (
	probeMemPages   = 16 // 1 MiB walked sequentially
	probeReserve    = 64 << 20
	probeOSPage     = 4096
	probeGrowDelta  = 4
	probeGrowRounds = 8
)

var probeSink atomic.Uint64

func newProbeMemory(s leaps.Strategy, as *vmm.AddressSpace, minPages uint32) (*mem.Memory, error) {
	return mem.New(mem.Config{Strategy: s, AS: as, MinPages: minPages, MaxPages: churnMaxPages, Pool: mem.SharedPool(as)})
}

// probeMem measures the access path, grow, fault commit, snapshot and
// bulk copy of internal/mem, per strategy.
func probeMem(lv *layerValues) error {
	for _, s := range leaps.Strategies() {
		as := vmm.New(profile.VM)
		m, err := newProbeMemory(s, as, probeMemPages)
		if err != nil {
			return err
		}
		size := m.SizeBytes()
		// First pass commits lazily provisioned pages.
		for a := uint64(0); a < size; a += 4 {
			m.StoreU32(a, uint32(a))
		}
		sweeps := probeSize.accesses / int(size/4)
		var sum uint32
		lv.set("mem.load_ns."+s.String(), medianOf(3, time.Nanosecond, func() {
			for i := 0; i < sweeps; i++ {
				for a := uint64(0); a < size; a += 4 {
					sum += m.LoadU32(a)
				}
			}
		})/float64(probeSize.accesses))
		probeSink.Add(uint64(sum))
		lv.set("mem.store_ns."+s.String(), medianOf(3, time.Nanosecond, func() {
			for i := 0; i < sweeps; i++ {
				for a := uint64(0); a < size; a += 4 {
					m.StoreU32(a, uint32(i))
				}
			}
		})/float64(probeSize.accesses))
		if s == leaps.Trap {
			half := size / 2
			lv.set("mem.bulk_copy_gb_s", float64(half)/medianOf(probeSize.mappings, time.Nanosecond, func() { m.Copy(half, 0, half) }))
			var snapErr error
			lv.set("mem.snapshot_us", medianOf(probeSize.mappings, time.Microsecond, func() { _, snapErr = m.Snapshot() }))
			if snapErr != nil {
				return snapErr
			}
		}
		if err := m.Close(); err != nil {
			return err
		}

		var grow, touch []float64
		for i := 0; i < probeSize.mappings; i++ {
			gm, err := newProbeMemory(s, as, 1)
			if err != nil {
				return err
			}
			w := startWatch()
			for r := 0; r < probeGrowRounds; r++ {
				if gm.Grow(probeGrowDelta) < 0 {
					return fmt.Errorf("mem probe: grow refused under %s", s)
				}
			}
			grow = append(grow, w.in(time.Microsecond)/probeGrowRounds)
			w = startWatch()
			pages := 0
			for a := uint64(65536); a < gm.SizeBytes(); a += probeOSPage {
				gm.StoreU32(a, 1)
				pages++
			}
			touch = append(touch, w.in(time.Microsecond)/float64(pages))
			if err := gm.Close(); err != nil {
				return err
			}
		}
		lv.set("mem.grow_us."+s.String(), median(grow))
		if s == leaps.Mprotect || s == leaps.Uffd {
			lv.set("mem.first_touch_us."+s.String(), median(touch))
		}
		mem.SharedPool(as).Drain()
	}
	return nil
}

// probeVMM times the simulated kernel's calls on a 64 MiB mapping.
func probeVMM(lv *layerValues) error {
	as := vmm.New(profile.VM)
	var mmapUs, mprotUs, munmapUs, touchNs []float64
	for i := 0; i < probeSize.mappings; i++ {
		w := startWatch()
		mp, err := as.Mmap(mem.Reserve, probeReserve, vmm.ProtNone)
		if err != nil {
			return err
		}
		mmapUs = append(mmapUs, w.in(time.Microsecond))
		w = startWatch()
		if err := mp.Mprotect(0, probeGrowDelta*65536, vmm.ProtRW); err != nil {
			return err
		}
		mprotUs = append(mprotUs, w.in(time.Microsecond))
		w = startWatch()
		if err := mp.Touch(0, probeGrowDelta*65536); err != nil {
			return err
		}
		touchNs = append(touchNs, w.in(time.Nanosecond)/(probeGrowDelta*65536/probeOSPage))
		w = startWatch()
		if err := mp.Munmap(); err != nil {
			return err
		}
		munmapUs = append(munmapUs, w.in(time.Microsecond))
	}
	lv.set("vmm.mmap_us", median(mmapUs))
	lv.set("vmm.mprotect_us", median(mprotUs))
	lv.set("vmm.touch_ns_per_page", median(touchNs))
	lv.set("vmm.munmap_us", median(munmapUs))
	return nil
}

// probeHazard times the hazard-pointer domain the uffd arena pool
// reclaims through.
func probeHazard(lv *layerValues) {
	var d hazard.Domain
	slot := d.Acquire()
	defer slot.Release()
	var src atomic.Pointer[uint64]
	v := new(uint64)
	src.Store(v)
	lv.set("hazard.protect_ns", medianOf(3, time.Nanosecond, func() {
		for i := 0; i < probeSize.hazardOps; i++ {
			*hazard.Protect(slot, &src)++
		}
	})/float64(probeSize.hazardOps))
	slot.Clear()
	lv.set("hazard.retire_ns", medianOf(3, time.Nanosecond, func() {
		for i := 0; i < probeSize.retireOps; i++ {
			hazard.Retire(&d, new(uint64), func() {})
		}
	})/float64(probeSize.retireOps))
	probeSink.Add(*v)
}

// probeTiered runs the one v8 cell: gemm under mprotect. Its background
// tier-up and GC workers make it too noisy to gate, so it is a layer
// row only.
func probeTiered(lv *layerValues) error {
	wl, err := leaps.WorkloadByName("gemm")
	if err != nil {
		return err
	}
	m, native := wl.Build(class)
	want := native()
	eng, closeEng, err := leaps.NewEngine(leaps.EngineV8)
	if err != nil {
		return err
	}
	defer closeEng()
	eng.(cacheSetter).SetCache(nil)
	w := startWatch()
	cm, err := eng.Compile(m)
	if err != nil {
		return err
	}
	if !tiered.WaitReady(cm, 30*time.Second) {
		return fmt.Errorf("v8 top tier not ready after 30 s")
	}
	lv.set("tiered.wait_ready_ms", w.in(time.Millisecond))
	proc := leaps.NewProcess(profile)
	defer proc.Close()
	var runErr error
	lv.set("tiered.exec_ms", medianOf(5, time.Millisecond, func() {
		inst, err := cm.Instantiate(proc.Config(leaps.Mprotect), nil)
		if err != nil {
			runErr = err
			return
		}
		defer inst.Close()
		if res, err := inst.Invoke("run"); err != nil || res[0] != want {
			runErr = fmt.Errorf("v8 gemm: digest %x, reference %x: %v", res, want, err)
		}
	}))
	return runErr
}

func runProbes(lv *layerValues, seed int64) error {
	if err := probePipeline(lv, seed); err != nil {
		return fmt.Errorf("pipeline probe: %w", err)
	}
	if err := probeMem(lv); err != nil {
		return fmt.Errorf("mem probe: %w", err)
	}
	if err := probeVMM(lv); err != nil {
		return fmt.Errorf("vmm probe: %w", err)
	}
	probeHazard(lv)
	if err := probeTiered(lv); err != nil {
		return fmt.Errorf("tiered probe: %w", err)
	}
	return nil
}
