// Package sysmon samples host execution statistics the way the
// paper's harness does: CPU utilization from /proc/stat using the
// paper's formula (§4.2.1, eq. 1: (us+sys+hi+si)/(us+sys+hi+si+id),
// rescaled so 100% is one fully busy core), and the system-wide
// context-switch rate from the ctxt line (§4.2.2). On systems
// without procfs the sampler degrades to reporting zeros with
// OK == false.
package sysmon

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// procStatPath is the counter source; a variable so tests can point
// the sampler at fixtures (unreadable paths, zeroed counters).
var procStatPath = "/proc/stat"

// Sample is one reading of the host counters.
type Sample struct {
	// Jiffies by category, summed over all CPUs.
	User, Nice, System, Idle, IOWait, IRQ, SoftIRQ uint64
	// CtxtSwitches is the cumulative context-switch count.
	CtxtSwitches uint64
	// When the sample was taken.
	Time time.Time
	// OK reports whether procfs was readable.
	OK bool
}

// busy returns the paper's numerator: us + sys + hi + si (user
// includes nice time, as the paper's footnote specifies).
func (s Sample) busy() uint64 {
	return s.User + s.Nice + s.System + s.IRQ + s.SoftIRQ
}

// Read samples /proc/stat.
func Read() Sample {
	s := Sample{Time: time.Now()}
	data, err := os.ReadFile(procStatPath)
	if err != nil {
		return s
	}
	parseStat(string(data), &s)
	return s
}

// parseStat fills s from /proc/stat text. Split from Read so tests
// can feed fixture content without a filesystem.
func parseStat(data string, s *Sample) {
	for _, line := range strings.Split(data, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		switch {
		case fields[0] == "cpu": // aggregate line
			vals := make([]uint64, 0, 8)
			for _, f := range fields[1:] {
				v, err := strconv.ParseUint(f, 10, 64)
				if err != nil {
					break
				}
				vals = append(vals, v)
			}
			if len(vals) >= 7 {
				s.User, s.Nice, s.System, s.Idle = vals[0], vals[1], vals[2], vals[3]
				s.IOWait, s.IRQ, s.SoftIRQ = vals[4], vals[5], vals[6]
				// Sandboxed environments expose /proc/stat with all
				// counters zeroed; treat that as unsupported so
				// callers fall back to simulated metrics.
				s.OK = s.busy()+s.Idle+s.IOWait > 0
			}
		case fields[0] == "ctxt" && len(fields) >= 2:
			if v, err := strconv.ParseUint(fields[1], 10, 64); err == nil {
				s.CtxtSwitches = v
			}
		}
	}
}

// Usage summarizes the interval between two samples.
type Usage struct {
	// CPUPercent follows the paper's rescaling: 100% is one fully
	// busy core, NumCPU*100% is full machine saturation.
	CPUPercent float64
	// CtxtPerSec is the system-wide context-switch rate.
	CtxtPerSec float64
	// Elapsed is the wall interval.
	Elapsed time.Duration
	// OK is true only when both samples were procfs-backed and the
	// interval was well-formed (positive duration, no counter wrap).
	OK bool
}

// Delta computes usage between two samples (a taken before b). A
// zero-or-negative interval, or any jiffy counter running backwards
// (a reboot or counter wrap between samples), degrades to OK=false —
// uint64 subtraction would otherwise produce astronomically large
// "busy" time and a nonsense utilization.
func Delta(a, b Sample) Usage {
	u := Usage{Elapsed: b.Time.Sub(a.Time), OK: a.OK && b.OK}
	if !u.OK || u.Elapsed <= 0 ||
		b.busy() < a.busy() || b.Idle+b.IOWait < a.Idle+a.IOWait {
		u.OK = false
		return u
	}
	busy := float64(b.busy() - a.busy())
	idle := float64((b.Idle + b.IOWait) - (a.Idle + a.IOWait))
	if busy+idle > 0 {
		// Fraction of all-CPU time busy, rescaled to core units.
		u.CPUPercent = busy / (busy + idle) * float64(runtime.NumCPU()) * 100
	}
	if b.CtxtSwitches >= a.CtxtSwitches {
		u.CtxtPerSec = float64(b.CtxtSwitches-a.CtxtSwitches) / u.Elapsed.Seconds()
	}
	return u
}
