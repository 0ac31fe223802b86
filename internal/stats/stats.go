// Package stats provides the summary statistics the paper's
// methodology prescribes: per-benchmark medians and the geometric
// mean of ratios for cross-benchmark aggregation (Fleming & Wallace,
// "How Not To Lie With Statistics", which the paper cites for its
// Figure 2 aggregation).
package stats

import (
	"math"
	"sort"
	"time"
)

// median returns the median of xs (the mean of the middle pair for
// even lengths). It returns 0 for empty input.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// MedianDurations is median over time.Durations.
func MedianDurations(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}

// Geomean returns the geometric mean of positive values; zero or
// negative entries are skipped (they would poison the product).
func Geomean(xs []float64) float64 {
	sum := 0.0
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

// GeomeanRatios aggregates per-benchmark (value, baseline) pairs as
// the geometric mean of value/baseline ratios — the paper's Figure 2
// statistic ("geometric mean of per-benchmark execution time medians
// divided by the native Clang time medians").
func GeomeanRatios(values, baselines []float64) float64 {
	n := min(len(values), len(baselines))
	ratios := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if baselines[i] > 0 && values[i] > 0 {
			ratios = append(ratios, values[i]/baselines[i])
		}
	}
	return Geomean(ratios)
}
