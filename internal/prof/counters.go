// Hardware/OS counter attribution: a perf_event_open counter group
// plus getrusage deltas, read around the harness's measurement
// window. Like internal/sysmon, everything degrades to zeros with
// OK == false when the host forbids it (no perf_event_open
// syscall, perf_event_paranoid too high, seccomp sandbox) — the
// repo's measurements must never hard-depend on counter
// availability.
package prof

// CounterSample is one reading of the perf-event group.
type CounterSample struct {
	Instructions   uint64
	Cycles         uint64
	BranchMisses   uint64
	DTLBLoadMisses uint64
	PageFaults     uint64
	// OK reports whether the group was live when read.
	OK bool
}

// Delta returns b - a per counter, degrading (OK=false, zeros) when
// either sample is degraded or a counter ran backwards (group
// re-opened between reads).
func (a CounterSample) Delta(b CounterSample) CounterSample {
	if !a.OK || !b.OK ||
		b.Instructions < a.Instructions || b.Cycles < a.Cycles ||
		b.BranchMisses < a.BranchMisses || b.DTLBLoadMisses < a.DTLBLoadMisses ||
		b.PageFaults < a.PageFaults {
		return CounterSample{}
	}
	return CounterSample{
		Instructions:   b.Instructions - a.Instructions,
		Cycles:         b.Cycles - a.Cycles,
		BranchMisses:   b.BranchMisses - a.BranchMisses,
		DTLBLoadMisses: b.DTLBLoadMisses - a.DTLBLoadMisses,
		PageFaults:     b.PageFaults - a.PageFaults,
		OK:             true,
	}
}

// RusageSample is one getrusage(RUSAGE_SELF) reading.
type RusageSample struct {
	UserNs           int64
	SystemNs         int64
	MaxRSSKB         int64
	MinorFaults      int64
	MajorFaults      int64
	VoluntaryCtxSw   int64
	InvoluntaryCtxSw int64
	OK               bool
}

// Delta returns the interval usage between two samples (MaxRSS is a
// high-water mark, so the later absolute value is kept).
func (a RusageSample) Delta(b RusageSample) RusageSample {
	if !a.OK || !b.OK {
		return RusageSample{}
	}
	d := RusageSample{
		UserNs:           b.UserNs - a.UserNs,
		SystemNs:         b.SystemNs - a.SystemNs,
		MaxRSSKB:         b.MaxRSSKB,
		MinorFaults:      b.MinorFaults - a.MinorFaults,
		MajorFaults:      b.MajorFaults - a.MajorFaults,
		VoluntaryCtxSw:   b.VoluntaryCtxSw - a.VoluntaryCtxSw,
		InvoluntaryCtxSw: b.InvoluntaryCtxSw - a.InvoluntaryCtxSw,
		OK:               true,
	}
	if d.UserNs < 0 || d.SystemNs < 0 || d.MinorFaults < 0 || d.MajorFaults < 0 ||
		d.VoluntaryCtxSw < 0 || d.InvoluntaryCtxSw < 0 {
		return RusageSample{}
	}
	return d
}

// HWStats is the counter-attribution summary attached to harness
// results (Options.HWCounters, leapsbench -perf): the perf-event
// group's deltas (calling-thread scope) plus process-wide rusage
// deltas over the same window. Either half degrades independently.
type HWStats struct {
	PerfSupported  bool   `json:"perf_supported"`
	Instructions   uint64 `json:"instructions"`
	Cycles         uint64 `json:"cycles"`
	BranchMisses   uint64 `json:"branch_misses"`
	DTLBLoadMisses uint64 `json:"dtlb_load_misses"`
	PageFaults     uint64 `json:"page_faults"`

	RusageSupported  bool  `json:"rusage_supported"`
	UserNs           int64 `json:"user_ns"`
	SystemNs         int64 `json:"system_ns"`
	MaxRSSKB         int64 `json:"max_rss_kb"`
	MinorFaults      int64 `json:"minor_faults"`
	MajorFaults      int64 `json:"major_faults"`
	VoluntaryCtxSw   int64 `json:"voluntary_ctxsw"`
	InvoluntaryCtxSw int64 `json:"involuntary_ctxsw"`
}

// MergeCounters folds a perf-group delta into the stats.
func (h *HWStats) MergeCounters(d CounterSample) {
	if !d.OK {
		return
	}
	h.PerfSupported = true
	h.Instructions += d.Instructions
	h.Cycles += d.Cycles
	h.BranchMisses += d.BranchMisses
	h.DTLBLoadMisses += d.DTLBLoadMisses
	h.PageFaults += d.PageFaults
}

// MergeRusage folds a rusage delta into the stats.
func (h *HWStats) MergeRusage(d RusageSample) {
	if !d.OK {
		return
	}
	h.RusageSupported = true
	h.UserNs += d.UserNs
	h.SystemNs += d.SystemNs
	if d.MaxRSSKB > h.MaxRSSKB {
		h.MaxRSSKB = d.MaxRSSKB
	}
	h.MinorFaults += d.MinorFaults
	h.MajorFaults += d.MajorFaults
	h.VoluntaryCtxSw += d.VoluntaryCtxSw
	h.InvoluntaryCtxSw += d.InvoluntaryCtxSw
}
