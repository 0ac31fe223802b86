package main

import (
	"fmt"
	"strings"

	leaps "leapsandbounds"
)

// selfPerOp returns a span name's self time in every traced op of a
// cell, or nil when the cell never recorded that span.
func selfPerOp(c *cell, name string) []float64 {
	var xs []float64
	seen := false
	for _, t := range c.traced {
		v, ok := t.self[name]
		seen = seen || ok
		xs = append(xs, v)
	}
	if !seen {
		return nil
	}
	return xs
}

// spanMedian is the geometric mean, over the cells that pass keep and
// recorded the span, of each cell's median self time, in ns.
func spanMedian(cells []*cell, name string, keep func(*cell) bool) float64 {
	var meds []float64
	for _, c := range cells {
		if !keep(c) {
			continue
		}
		if xs := selfPerOp(c, name); xs != nil {
			meds = append(meds, median(xs))
		}
	}
	return geomean(meds)
}

// spanLayers derives the span and counter rows from the traced ops of
// the workload's own cells.
func spanLayers(lv *layerValues, cells []*cell) error {
	on := func(engine string, s leaps.Strategy) func(*cell) bool {
		return func(c *cell) bool { return c.engine == engine && c.strategy == s }
	}
	for _, s := range leaps.Strategies() {
		byStrategy := func(c *cell) bool { return c.strategy == s }
		lv.set("compiled.exec_ms."+s.String(), spanMedian(cells, spanInvoke, on(wavm, s))/1e6)
		lv.set("core.instantiate_us."+s.String(), spanMedian(cells, spanInstantiate, byStrategy)/1e3)
		lv.set("core.close_us."+s.String(), spanMedian(cells, spanClose, byStrategy)/1e3)
		lv.set("core.fork_us."+s.String(), spanMedian(cells, spanFork, byStrategy)/1e3)

		// Kernel counters are deltas around each traced op; an op count
		// that changes from op to op within a cell is flagged.
		var syscalls, faults, n float64
		for _, c := range cells {
			if !byStrategy(c) {
				continue
			}
			for _, d := range c.kernel {
				syscalls += float64(d.syscalls)
				faults += float64(d.faults)
				n++
				if first := c.kernel[0]; d.syscalls != first.syscalls || d.faults != first.faults || d.hostcalls != first.hostcalls {
					lv.uneven = append(lv.uneven, c.name+": kernel counters differ between ops")
					break
				}
			}
		}
		if n > 0 {
			lv.set("vmm.syscalls_per_op."+s.String(), syscalls/n)
			lv.set("vmm.faults_per_op."+s.String(), faults/n)
		}
	}
	lv.set("compiled.exec_ms.wasmtime_trap", spanMedian(cells, spanInvoke, on(wasmtime, leaps.Trap))/1e6)
	lv.set("compiled.exec_ms.wasmtime_mprotect", spanMedian(cells, spanInvoke, on(wasmtime, leaps.Mprotect))/1e6)
	lv.set("interp.exec_ms", spanMedian(cells, spanInvoke, func(c *cell) bool { return c.engine == wasm3 })/1e6)
	soft := spanMedian(cells, spanInvoke, func(c *cell) bool { return c.group() == "soft" })
	if vm := spanMedian(cells, spanInvoke, func(c *cell) bool { return c.group() == "vm" }); vm > 0 {
		lv.set("compiled.soft_over_vm", soft/vm)
	}

	// Guest ops per invoke come from one counted run per trap cell.
	for engine, name := range map[string]string{wavm: "compiled.ns_per_guest_op.wavm", wasm3: "interp.ns_per_guest_op"} {
		var per []float64
		for _, c := range cells {
			if !on(engine, leaps.Trap)(c) || c.countOps == nil {
				continue
			}
			ops, err := c.countOps()
			if err != nil {
				return fmt.Errorf("%s: counted run: %w", c.name, err)
			}
			if xs := selfPerOp(c, spanInvoke); xs != nil && ops > 0 {
				per = append(per, median(xs)/float64(ops))
			}
		}
		lv.set(name, geomean(per))
	}

	// Hostcalls: every wasi.* span is one guest→host crossing.
	var calls, callNs, invokeNs, cowPages, cowForks, hostOps float64
	byCall := map[string][2]float64{} // name → {count, ns}
	var overhead, rootSelf, rootTotal []float64
	for _, c := range cells {
		for i, t := range c.traced {
			for name, cnt := range t.count {
				if !strings.HasPrefix(name, spanHostcall) || name == spanNewEnv {
					continue
				}
				calls += float64(cnt)
				callNs += t.total[name]
				e := byCall[name]
				byCall[name] = [2]float64{e[0] + float64(cnt), e[1] + t.total[name]}
			}
			invokeNs += t.total[spanInvoke]
			rootSelf = append(rootSelf, t.self[spanOp])
			rootTotal = append(rootTotal, t.total[spanOp])
			cowPages += float64(c.kernel[i].cowPages)
			cowForks += float64(c.kernel[i].cowForks)
			if c.kernel[i].hostcalls > 0 {
				hostOps++
			}
		}
		if len(c.tracedTotal) > 0 && len(c.samples) > 0 {
			// Both sides against the kernel around them: the traced ops
			// were multiplied by the running factor as they went.
			overhead = append(overhead, median(c.tracedTotal)/c.read(reader{}, opTimes).Median)
		}
	}
	if hostOps > 0 {
		lv.set("wasi.hostcalls_per_op", calls/hostOps)
		lv.set("wasi.ns_per_hostcall", callNs/calls)
		lv.set("wasi.hostcall_share", callNs/invokeNs)
		for metric, name := range map[string]string{"wasi.fd_read_ns": "fd_read", "wasi.fd_write_ns": "fd_write", "wasi.fd_seek_ns": "fd_seek"} {
			if e := byCall[spanHostcall+name]; e[0] > 0 {
				lv.set(metric, e[1]/e[0])
			}
		}
	}
	if cowForks > 0 {
		lv.set("vmm.cow_pages_per_fork", cowPages/cowForks)
	}
	lv.set("bench.trace_overhead_ratio", geomean(overhead))
	lv.set("bench.host_factor", median(host.factors()))
	var self, total float64
	for i := range rootSelf {
		self += rootSelf[i]
		total += rootTotal[i]
	}
	if total > 0 {
		lv.set("bench.unattributed_share", self/total)
	}
	return nil
}

// churnLayers adds the rows only churn's two arms and phase B can give.
func churnLayers(lv *layerValues, rd reader, cells []*cell, a window, b *contended) {
	arm := func(name string) float64 {
		return phaseDist(rd, cells, readyTimes, func(c *cell) bool { return c.arm == name }).Low
	}
	lv.set("core.ready_ms_fresh", arm("fresh"))
	lv.set("core.ready_ms_fork", arm("fork"))
	for s, busy := range b.busyNs {
		lv.set("vmm.lock_wait_share."+s.String(), float64(b.lockWaitNs[s])/float64(busy))
	}
	lv.set("vmm.scaling_2c", b.win.opsPerSec()/a.opsPerSec())
}
