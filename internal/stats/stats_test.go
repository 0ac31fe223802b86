package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{1, 1, 1, 9}, 1},
	}
	for _, c := range cases {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestMedianDoesNotMutate(t *testing.T) {
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Error("Median mutated its input")
	}
}

func TestGeomean(t *testing.T) {
	if got := Geomean([]float64{1, 4}); got != 2 {
		t.Errorf("Geomean = %v", got)
	}
	if got := Geomean([]float64{2, 0, 8}); got != 4 {
		t.Errorf("Geomean skipping zeros = %v", got)
	}
	if got := Geomean(nil); got != 0 {
		t.Errorf("empty Geomean = %v", got)
	}
}

func TestGeomeanRatios(t *testing.T) {
	// Equal values: ratio 1 everywhere.
	if got := GeomeanRatios([]float64{3, 5}, []float64{3, 5}); math.Abs(got-1) > 1e-12 {
		t.Errorf("identity ratios = %v", got)
	}
	// 2x and 8x → geomean 4x.
	if got := GeomeanRatios([]float64{2, 8}, []float64{1, 1}); math.Abs(got-4) > 1e-12 {
		t.Errorf("ratios = %v", got)
	}
}

// TestGeomeanScaleInvariance is the Fleming & Wallace property: the
// geomean of ratios is invariant under per-benchmark rescaling.
func TestGeomeanScaleInvariance(t *testing.T) {
	f := func(a, b, scale uint8) bool {
		v := []float64{float64(a)/7 + 1, float64(b)/7 + 1}
		base := []float64{2, 3}
		k := float64(scale)/51 + 1
		before := GeomeanRatios(v, base)
		scaledV := []float64{v[0] * k, v[1] * k * 0} // second pair rescaled both sides below
		_ = scaledV
		// Scale benchmark 0 on both sides: ratio unchanged.
		after := GeomeanRatios([]float64{v[0] * k, v[1]}, []float64{base[0] * k, base[1]})
		return math.Abs(before-after) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
