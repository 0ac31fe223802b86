package main

import (
	"encoding/binary"
	"math"
	"sort"
	"time"
)

// The reference host is a 2-vCPU microVM on a shared machine. What its
// neighbours do shows in the benchmark as a state that comes and goes
// within tens of milliseconds and, while it lasts, slows the engines'
// run loops by about 1.6×: over one 20-minute series of 40 runs the raw
// median op time spread 13–35 % per workload, and single runs read up to
// 70 % above the quietest one. No bound of at most 25 % can be held on
// raw wall time there.
//
// So the benchmark keeps timing a reference kernel between ops — its own
// code, which no change to the repository can move — and reads the ops
// against it (reader, below). The kernel is a switch-dispatched
// interpreter loop over a fixed random program, because that is what the
// host's busy state hurts: timed side by side with the ops, the kernel
// slowed 1.54× where hostcall ops slowed 1.53×, steady and coldstart ops
// 1.45×, while four independent integer chains slowed 1.2×, dependent
// loads 1.15× and a 4 MiB sweep 1.15× (and the sweep's own time doubled
// with whatever the last op left in the caches). README.md, "Reading
// time on a shared host", has the measurements.

const (
	// calibRefMs is what the kernel takes on the reference host when the
	// host is quiet; it only fixes the unit.
	calibRefMs = 0.55
	// calibEvery bounds the kernel's cost to ~3 % of the run.
	calibEvery = 25 * time.Millisecond
	// calibTrail is how many of the latest timings the running factor
	// averages (~0.4 s).
	calibTrail = 16
	// calibAround is how far either side of an op the kernel timings
	// that read it may lie.
	calibAround = 250.0 // ms
	calibProg   = 400
	calibIters  = 500
	calibMem    = 1 << 18
)

type calibInst struct {
	op, d, s, t uint8
	k           uint64
}

var (
	// calibCode is the kernel's program: calibProg instructions drawn
	// from ten kinds by a fixed xorshift sequence.
	calibCode = func() []calibInst {
		p := make([]calibInst, calibProg)
		x := uint64(88172645463325252)
		next := func() uint64 {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			return x
		}
		for i := range p {
			p[i] = calibInst{op: uint8(next() % 10), d: uint8(next() % 8), s: uint8(next() % 8), t: uint8(next() % 8), k: next() | 1}
		}
		return p
	}()
	calibData = make([]byte, calibMem+8)
)

// calibKernel runs the program calibIters times: register arithmetic,
// loads and stores into 256 KiB, and a data-dependent skip, each behind
// one indirect jump.
func calibKernel() time.Duration {
	t0 := time.Now()
	var r [8]uint64
	for i := range r {
		r[i] = uint64(i+1) * 0x9e3779b97f4a7c15
	}
	mem := calibData
	for it := 0; it < calibIters; it++ {
		for pc := 0; pc < len(calibCode); pc++ {
			in := &calibCode[pc]
			switch in.op {
			case 0:
				r[in.d] = r[in.s] + r[in.t]
			case 1:
				r[in.d] = r[in.s] * in.k
			case 2:
				r[in.d] ^= r[in.s] >> (in.k & 31)
			case 3:
				r[in.d] += binary.LittleEndian.Uint64(mem[r[in.s]&(calibMem-8):])
			case 4:
				binary.LittleEndian.PutUint64(mem[r[in.s]&(calibMem-8):], r[in.t])
			case 5:
				if r[in.s]&1 == 0 {
					pc++
				}
			case 6:
				r[in.d] = r[in.s]<<7 | r[in.s]>>57
			case 7:
				r[in.d] = r[in.s] - r[in.t]
			case 8:
				r[in.d] = r[in.s] & in.k
			case 9:
				r[in.d] = r[in.s] | r[in.t]>>3
			}
		}
	}
	d := time.Since(t0)
	probeSink.Add(r[0] + r[3])
	return d
}

// sinceStartMs is the run's clock for ops and kernel timings.
func sinceStartMs() float64 { return ms(time.Since(processStart)) }

// hostSpeed holds the kernel's timings of one run.
type hostSpeed struct {
	last time.Time
	at   []float64 // when each timing was taken, ms since process start
	ms   []float64 // the timings
	sum  []float64 // sum[i] = ms[0] + … + ms[i-1]
}

var host hostSpeed

// tick re-times the kernel if the last timing is older than calibEvery.
// Call it between ops, never inside a clock.
func (h *hostSpeed) tick() {
	if time.Since(h.last) < calibEvery {
		return
	}
	at := sinceStartMs()
	h.record(at, ms(calibKernel()))
	h.last = time.Now()
}

func (h *hostSpeed) record(at, d float64) {
	if h.sum == nil {
		h.sum = []float64{0}
	}
	h.at = append(h.at, at)
	h.ms = append(h.ms, d)
	h.sum = append(h.sum, h.sum[len(h.sum)-1]+d)
}

// meanOf averages timings i..j-1.
func (h *hostSpeed) meanOf(i, j int) float64 { return (h.sum[j] - h.sum[i]) / float64(j-i) }

// factor ticks and returns the running factor — the reference time over
// the mean of the latest calibTrail timings. Traced ops, probes and
// churn's phase B multiply their durations by it as they go; the
// end-to-end rows are read afterwards, by a reader.
func (h *hostSpeed) factor() float64 {
	h.tick()
	n := len(h.ms)
	return calibRefMs / h.meanOf(max(0, n-calibTrail), n)
}

// around is the factor for something that ran from start to end (ms
// since process start): the reference time over the mean of the timings
// taken from calibAround before it to calibAround after it, widened to
// the nearest three if fewer fell inside.
func (h *hostSpeed) around(start, end float64) float64 {
	i := sort.SearchFloat64s(h.at, start-calibAround)
	j := sort.SearchFloat64s(h.at, end+calibAround)
	for j-i < 3 && (i > 0 || j < len(h.at)) {
		i, j = max(0, i-1), min(len(h.at), j+1)
	}
	return calibRefMs / h.meanOf(i, j)
}

// quiet is the factor of the host's quiet moments: the reference time
// over the 5th percentile of the run's timings.
func (h *hostSpeed) quiet() float64 { return calibRefMs / summarize(h.ms).at(quickQuantile) }

// factors returns the factor of every kernel timing of the run.
func (h *hostSpeed) factors() []float64 {
	fs := make([]float64, len(h.ms))
	for i, d := range h.ms {
		fs[i] = calibRefMs / d
	}
	return fs
}

// A reader turns a cell's raw samples into the value the cell reports.
// The host's busy state only ever adds time, so the aim is the time the
// op takes on a quiet host, and there are two ways to get it.
//
// Quick workloads (hostcall, churn) have ops of a few milliseconds —
// shorter than the busy state's bursts and hundreds of samples per cell —
// so some ops always fall into quiet moments: the value is the 5th
// percentile of the raw times. What is left is a slow drift of the quiet
// speed itself, which ops follow about half as much as the kernel does:
// the value is multiplied by the square root of the quiet factor
// (measured: spread over ten runs 5.3 % with no factor, 1.5 % with the
// square root, 6.0 % with the whole factor).
//
// The other workloads (steady, coldstart) have ops of 5–150 ms, which
// span several bursts, and 15–120 samples per cell: no sample is quiet
// and each is slowed by the share of its time the host was busy. Each op
// is multiplied by the factor around it, and the value is the lower
// quartile of the products (lower quartile 4.2 %, median 7.1 %, mean
// 7.6 % on steady).
type reader struct {
	quick bool
	// quiet is the quick reader's one factor for the whole run.
	quiet float64
}

// newReader is called once the run's ops are done.
func newReader(quick bool) reader {
	return reader{quick, math.Pow(host.quiet(), quickExponent)}
}

const (
	quickQuantile = 0.05
	slowQuantile  = 0.25
	quickExponent = 0.5
)

// quantile is where a reader reads a cell's distribution.
func (rd reader) quantile() float64 {
	if rd.quick {
		return quickQuantile
	}
	return slowQuantile
}

// factor is what a reader multiplies a duration from start to end by.
func (rd reader) factor(start, end float64) float64 {
	if rd.quick {
		return rd.quiet
	}
	return host.around(start, end)
}
