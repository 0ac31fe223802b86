package compiled

import "math"

// Small numeric conversion helpers shared by the emitters and the
// elision passes. These mirror the unexported helpers in internal/rir
// (the op tables moved there with the IR; the closure emitters here
// still specialize a few float paths directly).
func bu(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func g64(v uint64) float64 { return math.Float64frombits(v) }
func p64(f float64) uint64 { return math.Float64bits(f) }
