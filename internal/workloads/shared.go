// The shared-memory grow-under-traffic workload: the wasm-threads
// scenario the paper's contention analysis (§4.2) predicts is worst
// for mprotect-managed memories. N workers hammer disjoint chunks of
// one shared linear memory while a grower expands it; every grow
// moves the memory end, and each worker's per-round tail write lands
// on the youngest page — freshly grown, never yet committed — so the
// strategies' grow protocols are exercised under live traffic:
// mprotect remaps under the process VMA lock while siblings fault,
// uffd populates lock-free, the flat strategies commit in Grow before
// the new length is published.
//
// The module is deliberately dual-entry:
//
//	work(worker, rounds) → i64   the parallel entry: one invocation
//	                             per worker thread, touching only that
//	                             worker's chunk plus its private tail
//	                             slot, so concurrent invocations on a
//	                             shared memory race only through the
//	                             grow protocol, never through data;
//	run() → i64                  the serial parity entry: all workers
//	                             in one thread with a memory.grow
//	                             between them, summing the per-worker
//	                             checksums with a commutative fold.
//
// Because work's checksum covers only chunk words the worker itself
// wrote that round, and tail writes land outside every chunk, the
// parallel digest (sum of per-worker results) equals run()'s serial
// digest equals the native twin — regardless of grow timing. That is
// what lets the harness hold byte-identical digests across all five
// strategies while the grower races the workers.
package workloads

import (
	"leapsandbounds/internal/wasm"
	g "leapsandbounds/internal/wasmgen"
)

// sharedTailBytes is the reserved scratch region at the current end
// of memory: each worker's per-round tail write lands at
// memory_end - sharedTailBytes + 8*worker, so workers stay disjoint
// and the writes always touch the youngest page.
const sharedTailBytes = 256

// SharedGeometry is the shape of the shared workload at one class.
type SharedGeometry struct {
	// Workers is the number of worker lanes the module is built for
	// (the harness runs one thread per lane; run() iterates them).
	Workers int
	// Rounds is the per-invocation round count of the serial entry;
	// the harness passes its own rounds to work().
	Rounds int
	// ChunkWords is each worker's private chunk, in i64 words.
	ChunkWords int
	// MinPages and MaxPages are the module's memory limits; MinPages
	// holds every chunk plus the tail region, and the gap up to
	// MaxPages is the grow headroom the grower consumes.
	MinPages, MaxPages uint32
}

// SharedShape returns the workload geometry for a class. Invariant:
// Workers*ChunkWords*8 + sharedTailBytes <= MinPages*PageSize, so
// tail writes can never land inside a chunk even before the first
// grow.
func SharedShape(c Class) SharedGeometry {
	if c == Test {
		return SharedGeometry{Workers: 4, Rounds: 2, ChunkWords: 256, MinPages: 1, MaxPages: 8}
	}
	return SharedGeometry{Workers: 8, Rounds: 4, ChunkWords: 2048, MinPages: 3, MaxPages: 64}
}

// Mixing constants for the chunk fill (splitmix-flavored).
const (
	sharedK1 = int64(0x9e3779b9)
	sharedK2 = int64(0x5851f42d4c957f2d)
)

func buildShared(c Class) (*wasm.Module, func() uint64) {
	geo := SharedShape(c)
	chunkBytes := int32(geo.ChunkWords * 8)

	mb := g.NewModule()
	mb.Memory(geo.MinPages, geo.MaxPages)

	// work(worker, rounds): fill the worker's chunk, fold it into the
	// checksum, and stamp the tail slot on the youngest page.
	work := mb.Func("work", wasm.I64)
	worker := work.ParamI32("worker")
	rounds := work.ParamI32("rounds")
	r := work.LocalI32("r")
	i := work.LocalI32("i")
	base := work.LocalI32("base")
	acc := work.LocalI64("acc")
	elem := func(idx *g.Local) g.Expr {
		return g.Add(g.Get(base), g.Mul(g.Get(idx), g.I32(8)))
	}
	// value(worker, r, i) = ((worker*K1 + r) ^ i) * K2
	value := g.Mul(
		g.Xor(
			g.Add(g.Mul(g.I64FromI32U(g.Get(worker)), g.I64(sharedK1)), g.I64FromI32U(g.Get(r))),
			g.I64FromI32U(g.Get(i))),
		g.I64(sharedK2))
	// tail = memory_end - sharedTailBytes + 8*worker: always on the
	// youngest page, never inside a chunk (see SharedShape invariant).
	tail := g.Add(
		g.Sub(g.Mul(g.MemSize(), g.I32(wasm.PageSize)), g.I32(sharedTailBytes)),
		g.Mul(g.Get(worker), g.I32(8)))
	work.Body(
		g.Set(base, g.Mul(g.Get(worker), g.I32(chunkBytes))),
		g.For(r, g.I32(0), g.Get(rounds),
			g.For(i, g.I32(0), g.I32(int32(geo.ChunkWords)),
				g.StoreI64(elem(i), 0, value),
			),
			g.For(i, g.I32(0), g.I32(int32(geo.ChunkWords)),
				g.Set(acc, g.Add(g.Get(acc), g.LoadI64(elem(i), 0))),
			),
			g.StoreI64(tail, 0, g.Get(acc)),
		),
		g.Return(g.Get(acc)),
	)
	mb.Export("work", work)

	// run(): serial parity — every lane once, a grow between lanes so
	// single-threaded engines exercise the same grow-then-touch path.
	run := mb.Func(Entry, wasm.I64)
	w := run.LocalI32("w")
	digest := run.LocalI64("digest")
	run.Body(
		g.For(w, g.I32(0), g.I32(int32(geo.Workers)),
			g.Drop(g.MemGrow(g.I32(1))),
			g.Set(digest, g.Add(g.Get(digest), g.Call(work, g.Get(w), g.I32(int32(geo.Rounds))))),
		),
		g.Return(g.Get(digest)),
	)
	mb.Export(Entry, run)

	m, err := mb.Module()
	if err != nil {
		panic(err)
	}

	native := func() uint64 {
		var digest uint64
		for w := 0; w < geo.Workers; w++ {
			digest += SharedWorkNative(c, w, geo.Rounds)
		}
		return digest
	}
	return m, native
}

// SharedWorkNative is the native twin of one work(worker, rounds)
// invocation; the harness uses it to pin per-lane results and the
// cross-lane digest independently of any engine.
func SharedWorkNative(c Class, worker, rounds int) uint64 {
	geo := SharedShape(c)
	var acc uint64
	for r := 0; r < rounds; r++ {
		for i := 0; i < geo.ChunkWords; i++ {
			v := (uint64(uint32(worker))*uint64(sharedK1) + uint64(uint32(r))) ^ uint64(uint32(i))
			acc += v * uint64(sharedK2)
		}
	}
	return acc
}

func init() {
	register(Spec{
		Name:    "shared-grow",
		Suite:   "shared",
		Desc:    "grow-under-traffic over one shared linear memory: disjoint worker chunks, tail writes on the youngest page",
		BuildFn: buildShared,
	})
}
