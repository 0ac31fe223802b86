package main

import (
	"math"
	"sort"
)

// dist summarises one cell's samples (or, via combine, one metric
// spanning several cells).
type dist struct {
	N       int
	Median  float64
	Q1, Q3  float64
	Low     float64 // where a reader reads it; set by combine
	TailPct float64 // 0 when n is too small for any tail
	Tail    float64
	sorted  []float64
}

// at reads the distribution at quantile q.
func (d dist) at(q float64) float64 { return quantile(d.sorted, q) }

// quantile interpolates linearly between closest ranks of a sorted slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// tailLadder lists the percentiles a tail may be reported at, each with
// the share of samples beyond it in parts per thousand.
var tailLadder = []struct {
	pct      float64
	perMille int
}{{99.9, 1}, {99, 10}, {95, 50}, {90, 100}, {75, 250}, {50, 500}}

// tailIndex returns the highest ladder percentile that still has at
// least ten of n samples beyond it, and that percentile's index in the
// sorted samples; pct is 0 if n is too small for any. Tails are printed
// for information only: on a 2-core shared host they measure the
// scheduler, not the program.
func tailIndex(n int) (pct float64, idx int) {
	for _, t := range tailLadder {
		if beyond := n * t.perMille / 1000; beyond >= 10 {
			return t.pct, n - beyond - 1
		}
	}
	return 0, 0
}

func summarize(xs []float64) dist {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	d := dist{N: len(s), Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), sorted: s}
	if pct, idx := tailIndex(len(s)); pct > 0 {
		d.TailPct, d.Tail = pct, s[idx]
	}
	return d
}

// geomean ignores non-positive values: a cell with no samples must not
// zero the whole metric (the run is already marked failed in that case).
func geomean(xs []float64) float64 {
	var sum float64
	n := 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// combine folds per-cell summaries into one metric row: the geometric
// mean of the per-cell medians (and of their quartiles, and of their
// values at quantile low), with the tail taken at the percentile the
// smallest cell supports.
func combine(ds []dist, low float64) dist {
	if len(ds) == 0 {
		return dist{}
	}
	out := dist{}
	minN := ds[0].N
	var med, q1, q3, lo []float64
	for _, d := range ds {
		out.N += d.N
		minN = min(minN, d.N)
		med = append(med, d.Median)
		q1 = append(q1, d.Q1)
		q3 = append(q3, d.Q3)
		lo = append(lo, d.at(low))
	}
	out.Median, out.Q1, out.Q3, out.Low = geomean(med), geomean(q1), geomean(q3), geomean(lo)
	if pct, _ := tailIndex(minN); pct > 0 {
		var tails []float64
		for _, d := range ds {
			tails = append(tails, quantile(d.sorted, pct/100))
		}
		out.TailPct, out.Tail = pct, geomean(tails)
	}
	return out
}

// spread is the interquartile distance as a share of the median, using
// the same quartile method as Python's statistics.quantiles(n=4)
// (exclusive), which is what the gate uses.
func spread(xs []float64) (med, rel float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return median(xs), 0
	}
	q := func(k int) float64 {
		j := k * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med = q(2)
	if med == 0 {
		return 0, 0
	}
	return med, (q(3) - q(1)) / math.Abs(med)
}
