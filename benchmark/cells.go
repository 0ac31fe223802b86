package main

import (
	"fmt"
	"math/rand"
	"time"

	leaps "leapsandbounds"
)

// Engine names as the repo's facade spells them; the groups are the
// end-to-end metrics' cell classes.
const (
	wavm     = leaps.EngineWAVM
	wasmtime = leaps.EngineWasmtime
	wasm3    = leaps.EngineWasm3
)

var groups = []string{"vm", "soft", "singlepass", "interp"}

// groupOf classes a cell: the optimizing engine splits by who checks
// the bounds (software compare vs virtual memory), the other two
// engines are one class each.
func groupOf(engine string, s leaps.Strategy) string {
	switch {
	case engine == wasmtime:
		return "singlepass"
	case engine == wasm3:
		return "interp"
	case s.IsSoftware():
		return "soft"
	default:
		return "vm"
	}
}

// phases is one op's timing. total is measured on its own, not summed.
type phases struct{ ready, exec, teardown, total time.Duration }

// opSpec is one isolate lifecycle: get an instance ready, invoke its
// entry, close it, and compare the result with an independent reference.
type opSpec struct {
	ready func(r *recorder) (leaps.Instance, error)
	entry string
	args  []uint64
	want  uint64
}

func (o *opSpec) run(r *recorder) (phases, error) {
	var ph phases
	t0 := time.Now()
	inst, err := o.ready(r)
	if err != nil {
		return ph, err
	}
	t1 := time.Now()
	sp := r.begin(spanInvoke)
	res, err := inst.Invoke(o.entry, o.args...)
	r.end(sp)
	t2 := time.Now()
	sp = r.begin(spanClose)
	cerr := inst.Close()
	r.end(sp)
	t3 := time.Now()
	ph = phases{ready: t1.Sub(t0), exec: t2.Sub(t1), teardown: t3.Sub(t2), total: t3.Sub(t0)}
	switch {
	case err != nil:
		return ph, err
	case cerr != nil:
		return ph, cerr
	case len(res) != 1 || res[0] != o.want:
		return ph, fmt.Errorf("digest %x, reference %x", res, o.want)
	}
	return ph, nil
}

// Span names the benchmark records around the layers' public functions.
const (
	spanOp          = "op"
	spanInvoke      = "invoke"
	spanInvokeInit  = "invoke.init"
	spanClose       = "core.Close"
	spanInstantiate = "core.Instantiate"
	spanFork        = "core.ForkWith"
	spanTemplate    = "core.NewTemplate"
	spanDecode      = "wasm.Decode"
	spanValidate    = "validate.Module"
	spanCompile     = "engine.Compile"
	spanNewEnv      = "wasi.NewEnv"
	spanHostcall    = "wasi." // + import name
)

// instantiate is the ready step shared by every fresh (non-fork) op.
func instantiate(r *recorder, cm leaps.CompiledModule, cfg leaps.Config, imports leaps.Imports) (leaps.Instance, error) {
	sp := r.begin(spanInstantiate)
	inst, err := cm.Instantiate(cfg, imports)
	r.end(sp)
	return inst, err
}

// cell is one (input, engine, strategy[, arm]) combination. Only one
// cell at a time runs on its simulated process, so kernel counter
// deltas around an op attribute to that op alone.
type cell struct {
	name     string
	engine   string
	strategy leaps.Strategy
	arm      string // churn only: "fresh" or "fork"
	proc     *leaps.Process
	op       opSpec
	// countOps, when set, runs the op once under the cycle model and
	// returns the guest ops it executed (traced runs only).
	countOps func() (int64, error)

	// One sample per untraced op.
	samples []sample
	// Traced ops only.
	tracedTotal []float64
	traced      []opTotals
	kernel      []kernelDelta
}

func (c *cell) group() string { return groupOf(c.engine, c.strategy) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// sample is one untraced op: when it ran (ms since process start), its
// raw phase times in ms, and its time with the harness's own work
// around it, which is what a closed loop's throughput pays.
type sample struct {
	start, end                         float64
	ready, exec, teardown, total, wall float64
}

// once runs one op; every op counts as attempted, only kept ones are
// timed (warm-up ops are not). Untraced ops are kept raw, to be read
// once the run is over (reader, calib.go); traced ops are multiplied by
// the running host factor as they go. It returns the op's time with
// the harness's work around it, at the running factor.
func (c *cell) once(r *recorder, keep bool, tl *tally) (wallMs float64) {
	f := host.factor()
	start, t0 := sinceStartMs(), time.Now()
	var before leaps.VMStats
	if r != nil {
		before = c.proc.VMStats()
	}
	root := r.begin(spanOp)
	ph, err := c.op.run(r)
	r.end(root)
	var totals opTotals
	if r != nil {
		totals = r.finishOp(f)
	}
	tl.attempted++
	switch {
	case err != nil:
		tl.fail(c, err)
	case !keep:
	case r != nil:
		c.tracedTotal = append(c.tracedTotal, f*ms(ph.total))
		c.traced = append(c.traced, totals)
		c.kernel = append(c.kernel, kernelSub(c.proc.VMStats(), before))
	default:
		c.samples = append(c.samples, sample{start, sinceStartMs(),
			ms(ph.ready), ms(ph.exec), ms(ph.teardown), ms(ph.total), ms(time.Since(t0))})
	}
	return f * ms(time.Since(t0))
}

// kernelDelta is what one op (or one contended block) added to its
// process's simulated-kernel counters.
type kernelDelta struct {
	syscalls, faults, hostcalls, lockWaitNs, cowForks, cowPages int64
}

func kernelSub(a, b leaps.VMStats) kernelDelta {
	return kernelDelta{
		syscalls:   a.MmapCalls + a.MunmapCalls + a.MprotectCalls - b.MmapCalls - b.MunmapCalls - b.MprotectCalls,
		faults:     a.MinorFaults + a.UffdFaults + a.SegvFaults - b.MinorFaults - b.UffdFaults - b.SegvFaults,
		hostcalls:  a.Hostcalls - b.Hostcalls,
		lockWaitNs: a.LockWaitNs - b.LockWaitNs,
		cowForks:   a.CowForks - b.CowForks,
		cowPages:   a.CowPagesCopied - b.CowPagesCopied,
	}
}

// tally counts ops run and the ones that errored, trapped or
// returned a digest other than the reference.
type tally struct {
	attempted, failed int
	firstErr          string
}

func (t *tally) fail(c *cell, err error) {
	t.failed++
	if t.firstErr == "" {
		t.firstErr = fmt.Sprintf("%s: %v", c.name, err)
	}
}

// window adds up measured ops and the time they took at the running
// host factor. Only churn's traced run reads it, to set phase B's
// throughput against phase A's.
type window struct {
	ops    int
	wallMs float64
}

func (w window) opsPerSec() float64 { return float64(w.ops) / w.wallMs * 1e3 }

// runner drives one client through the cells round-robin — one op of
// every cell per round, order reshuffled per round from the seed, so
// drift lands on all cells equally. The loop is closed: the next op
// starts when the previous one completes. With a recorder, measured
// rounds alternate traced and untraced, so that the tracing overhead is
// measured inside one process.
type runner struct {
	rng    *rand.Rand
	rec    *recorder
	tl     tally
	rounds int
	win    window
	gc     collector
}

func (rn *runner) round(cells []*cell, r *recorder, keep bool) {
	for _, i := range rn.rng.Perm(len(cells)) {
		wallMs := cells[i].once(r, keep, &rn.tl)
		if keep {
			rn.win.ops++
			rn.win.wallMs += wallMs + rn.gc.between()
		}
	}
}

// warm runs one discarded round (two when tracing, one each way).
func (rn *runner) warm(cells []*cell) {
	rn.round(cells, nil, false)
	if rn.rec != nil {
		rn.round(cells, rn.rec, false)
	}
}

// measure runs one round, then as many more as fit in the box, with the
// collector parked (collect.go).
func (rn *runner) measure(cells []*cell, box time.Duration) {
	defer rn.gc.park()()
	start := time.Now()
	for first, last := true, time.Duration(0); first || time.Since(start)+last <= box; first = false {
		t0 := time.Now()
		r := rn.rec
		if rn.rounds%2 == 1 {
			r = nil
		}
		rn.round(cells, r, true)
		rn.rounds++
		last = time.Since(t0)
	}
}

// Phase pickers for phaseDist.
func opTimes(s sample) float64       { return s.total }
func readyTimes(s sample) float64    { return s.ready }
func execTimes(s sample) float64     { return s.exec }
func teardownTimes(s sample) float64 { return s.teardown }
func wallTimes(s sample) float64     { return s.wall }

// read is a cell's distribution of one phase as the reader sees it.
func (c *cell) read(rd reader, phase func(sample) float64) dist {
	xs := make([]float64, len(c.samples))
	for i, s := range c.samples {
		xs[i] = phase(s) * rd.factor(s.start, s.end)
	}
	return summarize(xs)
}

// phaseDist is one metric row's statistics: the geometric mean, over
// the cells that pass keep (nil: all), of each cell's statistics of a
// phase.
func phaseDist(rd reader, cells []*cell, phase func(sample) float64, keep func(*cell) bool) dist {
	var ds []dist
	for _, c := range cells {
		if keep == nil || keep(c) {
			ds = append(ds, c.read(rd, phase))
		}
	}
	return combine(ds, rd.quantile())
}

// row is one printed metric; v is the value the result line carries.
type row struct {
	name, unit string
	d          dist
	v          float64
}

func scalar(name, unit string, v float64) row {
	return row{name, unit, dist{N: 1, Median: v, Q1: v, Q3: v, Low: v}, v}
}

// timing is a row that reports its distribution where the reader reads
// it (calib.go), not at the median.
func timing(name string, d dist) row { return row{name, "ms", d, d.Low} }

// throughput is what one client's closed loop completes per second: ops
// in a round ÷ (every cell's op with the harness's work around it, read
// like any timing, plus the collections' time per round).
func throughput(rd reader, cells []*cell, rounds int, gcMs float64) row {
	var roundMs float64
	for _, c := range cells {
		roundMs += c.read(rd, wallTimes).at(rd.quantile())
	}
	roundMs += gcMs / float64(rounds)
	return scalar("ops_per_s", "1/s", float64(len(cells))/roundMs*1e3)
}

// latencyRows computes the end-to-end timings from the untraced samples.
func latencyRows(rd reader, cells []*cell) []row {
	rows := []row{
		timing("op_ms", phaseDist(rd, cells, opTimes, nil)),
		timing("exec_ms", phaseDist(rd, cells, execTimes, nil)),
	}
	for _, grp := range groups {
		rows = append(rows, timing("op_ms_"+grp, phaseDist(rd, cells, opTimes, func(c *cell) bool { return c.group() == grp })))
	}
	return rows
}

// infoRows are printed but not gated: the two short phases are ~0.1 ms
// of allocator work on steady, whose run-to-run spread (15–23 %) no
// bound could hold, and the host factor converts back to raw wall time.
func infoRows(rd reader, cells []*cell) []row {
	hf := summarize(host.factors())
	return []row{
		timing("ready_ms", phaseDist(rd, cells, readyTimes, nil)),
		timing("teardown_ms", phaseDist(rd, cells, teardownTimes, nil)),
		{"host_factor", "ratio", hf, hf.Median},
	}
}
