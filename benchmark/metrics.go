package main

import leaps "leapsandbounds"

// metricDef is one row of BENCHMARK.json's end_to_end or per_layer
// list; a test holds the file and these tables to each other.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEndDefs are measured with tracing off and reported by every
// workload. A timing is the geometric mean, over the workload's cells,
// of each cell's value as the workload's reader reads it (calib.go).
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower"},           // the set-ups, one per epoch
	{"op_ms", "ms", "lower"},            // the whole op: ready + exec + teardown
	{"ops_per_s", "1/s", "higher"},      // measured ops ÷ the time they took
	{"peak_rss_mib", "MiB", "lower"},    // VmHWM at exit
	{"exec_ms", "ms", "lower"},          // the entry Invoke
	{"op_ms_vm", "ms", "lower"},         // op_ms over wavm × {none, mprotect, uffd}
	{"op_ms_soft", "ms", "lower"},       // op_ms over wavm × {clamp, trap}
	{"op_ms_singlepass", "ms", "lower"}, // op_ms over wasmtime cells
	{"op_ms_interp", "ms", "lower"},     // op_ms over wasm3 cells
}

func perStrategy(prefix, unit, better string) []metricDef {
	var out []metricDef
	for _, s := range leaps.Strategies() {
		out = append(out, metricDef{prefix + s.String(), unit, better})
	}
	return out
}

// layerDefs are reported by every traced run. Probe and pipeline rows
// mean the same on every workload; span and counter rows describe the
// workload's own cells and read 0 where it has no such cell or span.
var layerDefs = func() []metricDef {
	defs := []metricDef{
		{"wasm.decode_us", "us", "lower"},
		{"wasm.decode_mb_s", "MB/s", "higher"},
		{"wasm.module_bytes", "bytes", "lower"},
		{"validate.module_us", "us", "lower"},
		{"flatten.module_us", "us", "lower"},
		{"flatten.ops_out", "count", "lower"},
		{"rir.build_us", "us", "lower"},
		{"rir.optimize_us", "us", "lower"},
		{"rir.lower_us", "us", "lower"},
		{"rir.fusemem_us", "us", "lower"},
		{"rir.ops_in", "count", "lower"},
		{"rir.ops_out", "count", "lower"},
		{"rir.fused_cmpbr", "count", "higher"},
		{"rir.fused_ldop", "count", "higher"},
		{"rir.regs_allocated", "count", "lower"},
		{"compiled.compile_us.wavm", "us", "lower"},
		{"compiled.compile_us.wasmtime", "us", "lower"},
		{"compiled.codegen_us.wavm", "us", "lower"},
		{"compiled.bce_checks_emitted", "count", "lower"},
		{"compiled.bce_checks_elided", "count", "higher"},
		{"compiled.bce_hoisted", "count", "higher"},
	}
	defs = append(defs, perStrategy("compiled.exec_ms.", "ms", "lower")...)
	defs = append(defs,
		metricDef{"compiled.exec_ms.wasmtime_trap", "ms", "lower"},
		metricDef{"compiled.exec_ms.wasmtime_mprotect", "ms", "lower"},
		metricDef{"compiled.ns_per_guest_op.wavm", "ns", "lower"},
		// The paper's headline ratio; informational, no direction is asserted.
		metricDef{"compiled.soft_over_vm", "ratio", "higher"},
		metricDef{"compiled.artifact_encode_us", "us", "lower"},
		metricDef{"compiled.artifact_decode_us", "us", "lower"},
		metricDef{"interp.compile_us", "us", "lower"},
		metricDef{"interp.exec_ms", "ms", "lower"},
		metricDef{"interp.ns_per_guest_op", "ns", "lower"},
		metricDef{"tiered.exec_ms", "ms", "lower"},
		metricDef{"tiered.wait_ready_ms", "ms", "lower"},
		metricDef{"modcache.hit_ns", "ns", "lower"},
		metricDef{"modcache.miss_overhead_us", "us", "lower"},
		metricDef{"modcache.disk_store_us", "us", "lower"},
		metricDef{"modcache.disk_load_us", "us", "lower"},
		metricDef{"modcache.hit_ratio", "ratio", "higher"},
	)
	defs = append(defs, perStrategy("core.instantiate_us.", "us", "lower")...)
	defs = append(defs, perStrategy("core.close_us.", "us", "lower")...)
	defs = append(defs, perStrategy("core.fork_us.", "us", "lower")...)
	defs = append(defs,
		metricDef{"core.template_build_us", "us", "lower"},
		metricDef{"core.ready_ms_fresh", "ms", "lower"},
		metricDef{"core.ready_ms_fork", "ms", "lower"},
	)
	defs = append(defs, perStrategy("mem.load_ns.", "ns", "lower")...)
	defs = append(defs, perStrategy("mem.store_ns.", "ns", "lower")...)
	defs = append(defs, perStrategy("mem.grow_us.", "us", "lower")...)
	defs = append(defs,
		metricDef{"mem.first_touch_us.mprotect", "us", "lower"},
		metricDef{"mem.first_touch_us.uffd", "us", "lower"},
		metricDef{"mem.snapshot_us", "us", "lower"},
		metricDef{"mem.bulk_copy_gb_s", "GB/s", "higher"},
		metricDef{"vmm.mmap_us", "us", "lower"},
		metricDef{"vmm.mprotect_us", "us", "lower"},
		metricDef{"vmm.munmap_us", "us", "lower"},
		metricDef{"vmm.touch_ns_per_page", "ns", "lower"},
	)
	defs = append(defs, perStrategy("vmm.syscalls_per_op.", "count", "lower")...)
	defs = append(defs, perStrategy("vmm.faults_per_op.", "count", "lower")...)
	defs = append(defs, perStrategy("vmm.lock_wait_share.", "ratio", "lower")...)
	defs = append(defs,
		metricDef{"vmm.cow_pages_per_fork", "count", "lower"},
		metricDef{"vmm.scaling_2c", "ratio", "higher"},
		metricDef{"hazard.protect_ns", "ns", "lower"},
		metricDef{"hazard.retire_ns", "ns", "lower"},
		metricDef{"wasi.hostcalls_per_op", "count", "lower"},
		metricDef{"wasi.ns_per_hostcall", "ns", "lower"},
		metricDef{"wasi.fd_read_ns", "ns", "lower"},
		metricDef{"wasi.fd_write_ns", "ns", "lower"},
		metricDef{"wasi.fd_seek_ns", "ns", "lower"},
		metricDef{"wasi.hostcall_share", "ratio", "lower"},
		metricDef{"bench.trace_overhead_ratio", "ratio", "lower"},
		metricDef{"bench.unattributed_share", "ratio", "lower"},
		metricDef{"bench.host_factor", "ratio", "higher"},
	)
	return defs
}()
