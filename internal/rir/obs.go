package rir

import (
	"sync/atomic"

	"leapsandbounds/internal/obs"
)

// Process-wide lowering statistics: obs counters the package owns,
// like the elision counters in internal/compiled/bce.go. Stats()
// reads them and AttachObs registers these same objects in a run
// registry, so each lowering is counted once.
var (
	rirOpsIn         obs.Counter // stack-shaped ops entering the lowering pipeline
	rirOpsOut        obs.Counter // register-IR ops leaving it (post fusion)
	rirFusedCmpBr    obs.Counter // compare+branch pairs fused by Optimize
	rirFusedLdOp     obs.Counter // load+op / op+store superinstructions formed
	rirRegsAllocated obs.Counter // virtual registers allocated by Lower

	rirObsSc atomic.Pointer[obs.Scope]
)

// RIRStats is a snapshot of the lowering counters.
type RIRStats struct {
	OpsIn         int64
	OpsOut        int64
	FusedCmpBr    int64
	FusedLdOp     int64
	RegsAllocated int64
}

// Stats returns the process-wide lowering counters.
func Stats() RIRStats {
	return RIRStats{
		OpsIn:         rirOpsIn.Load(),
		OpsOut:        rirOpsOut.Load(),
		FusedCmpBr:    rirFusedCmpBr.Load(),
		FusedLdOp:     rirFusedLdOp.Load(),
		RegsAllocated: rirRegsAllocated.Load(),
	}
}

// AttachObs registers the lowering counters under sc (typically a
// "rir" scope of the run registry) and sends rir.lower spans there;
// nil stops the spans. The counters are process totals: a registry
// attached after some compiles sees those compiles too.
func AttachObs(sc *obs.Scope) {
	rirObsSc.Store(sc)
	sc.RegisterCounter("ops_in", &rirOpsIn)
	sc.RegisterCounter("ops_out", &rirOpsOut)
	sc.RegisterCounter("fused_cmpbr", &rirFusedCmpBr)
	sc.RegisterCounter("fused_ldop", &rirFusedLdOp)
	sc.RegisterCounter("regs_allocated", &rirRegsAllocated)
}

// RecordOptimize counts the compare+branch pairs one Optimize fused.
// A re-derivation that is not a compile (the artifact encoder's) does
// not call it.
func RecordOptimize(fusedCmpBr int) { rirFusedCmpBr.Add(int64(fusedCmpBr)) }

// RecordLowering records one function's trip through the register-IR
// pipeline: stack ops in, register ops out, registers allocated, and
// the wall time spent, emitted retroactively as a rir.lower span when
// tracing is on (durNs is only known once the pipeline finishes, the
// same shape as lock-wait attribution).
func RecordLowering(opsIn, opsOut, regs int, durNs int64) {
	rirOpsIn.Add(int64(opsIn))
	rirOpsOut.Add(int64(opsOut))
	rirRegsAllocated.Add(int64(regs))
	if sc := rirObsSc.Load(); sc != nil && sc.TracingEnabled() {
		sc.EndedSpan(obs.SpanRIRLower, obs.SpanRef{}, durNs)
	}
}
