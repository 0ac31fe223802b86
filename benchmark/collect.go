package main

import (
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"time"
)

// A concurrent collection that overlaps an op adds 0.3–0.5 ms to it (mark
// work on the other processor, write barriers, assists). On hostcall,
// whose ops are 1.6–6 ms and allocate a fresh in-memory FS each, a third
// to a half of the ops were hit; on coldstart, which allocates 21 MiB an
// op, every one. So the collector is parked while ops are measured and
// runs between ops instead, once gcEvery bytes have been allocated since
// it last ran. Op times therefore do not include collector work;
// ops_per_s does: it adds the collections' time per round.

// gcEvery is about what the pacer would allow the largest workload's
// live heap to grow by; it keeps the garbage of a few ops, not of a run.
const gcEvery = 32 << 20

var heapAllocs = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

func allocated() uint64 {
	metrics.Read(heapAllocs)
	return heapAllocs[0].Value.Uint64()
}

// collector runs the collections of one measured stretch.
type collector struct {
	at uint64  // bytes allocated when it last ran
	n  int     // collections run
	ms float64 // their time at the running host factor
}

// park switches the pacer off (waiting for a collection in flight to
// end) and returns the function that switches it back on, after a
// collection of its own, so that the stretch's garbage does not start
// one in the middle of the next set-up.
func (g *collector) park() (unpark func()) {
	old := debug.SetGCPercent(-1)
	g.at = allocated()
	return func() {
		runtime.GC()
		debug.SetGCPercent(old)
	}
}

// between is called between two ops: it collects if enough has been
// allocated and returns the time that took at the running host factor,
// in ms.
func (g *collector) between() float64 {
	if allocated()-g.at < gcEvery {
		return 0
	}
	f := host.factor()
	t0 := time.Now()
	runtime.GC()
	d := f * ms(time.Since(t0))
	g.at = allocated()
	g.n++
	g.ms += d
	return d
}
