// Command leapsbench is the benchmark driver: it regenerates the
// paper's figures or runs a single engine × strategy × workload
// configuration.
//
// Regenerate a figure (1, 2, 3, 4, 5, 6, replication, or all):
//
//	leapsbench -fig 2 -quick
//
// Run one configuration:
//
//	leapsbench -workload gemm -engine wavm -strategy uffd -threads 4
//
// List available workloads and engines:
//
//	leapsbench -list
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"text/tabwriter"
	"time"

	"leapsandbounds/internal/compiled"
	"leapsandbounds/internal/figures"
	"leapsandbounds/internal/harness"
	"leapsandbounds/internal/isa"
	"leapsandbounds/internal/mem"
	"leapsandbounds/internal/modcache"
	"leapsandbounds/internal/obs"
	"leapsandbounds/internal/prof"
	"leapsandbounds/internal/rir"
	"leapsandbounds/internal/workloads"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "leapsbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		fig      = flag.String("fig", "", "figure to regenerate: 1..6, replication, keyresults, all")
		quick    = flag.Bool("quick", false, "representative workload subset, fewer iterations")
		class    = flag.String("class", "bench", "problem size class: test or bench")
		workload = flag.String("workload", "", "single-run mode: workload name")
		engine   = flag.String("engine", "wavm", "single-run mode: engine (native, wavm, wasmtime, v8, wasm3)")
		strategy = flag.String("strategy", "mprotect", "single-run mode: bounds strategy")
		profileN = flag.String("isa", "x86_64", "hardware profile: x86_64, aarch64, riscv64")
		threads  = flag.Int("threads", 1, "worker threads")
		measure  = flag.Int("measure", 0, "measured iterations per thread")
		warmup   = flag.Int("warmup", 0, "warm-up iterations per thread")
		cycles   = flag.Bool("cycles", false, "enable the per-ISA cycle model")
		ops      = flag.Bool("ops", false, "single-run mode: print the executed-op histogram instead of timing")
		asJSON   = flag.Bool("json", false, "single-run mode: emit the result as JSON")
		metrics  = flag.String("metrics", "", "write run metrics (with -trace, the recorded span events too) to this file (.json, or a .txt summary; \"-\" for the summary on stdout)")
		trace    = flag.String("trace", "", "record causal spans and write a Chrome/Perfetto trace-event JSON to this file; also prints the critical-path attribution table")
		nocache  = flag.Bool("nocache", false, "disable the compiled-module cache (every run pays the full compile)")
		elide    = flag.Bool("elide", true, "single-run mode: bounds-check elision (wavm, the only engine with the pass); -elide=false compiles with per-access checks and is an error on any other engine")
		diskdir  = flag.String("diskcache", "", "attach an on-disk compiled-artifact tier at this directory (cross-process cache; artifacts are content-addressed and corruption-checked)")
		list     = flag.Bool("list", false, "list workloads and engines")
		profOut  = flag.String("profile", "", "single-run mode: sample the guest while the run executes and write <prefix>.folded and <prefix>.pb.gz; also prints the self-time table and per-strategy check share")
		profHz   = flag.Int("profhz", prof.DefaultHz, "guest sampling frequency in Hz")
		perfHW   = flag.Bool("perf", false, "single-run mode: read a perf_event counter group per worker plus rusage deltas around the measurement window and print the table")
	)
	flag.Parse()

	// One registry backs both observability outputs: the -metrics sink
	// and the -trace span recording. The final Snapshot is taken once
	// and feeds every post-run consumer, so the metrics file, the trace
	// file and the attribution table always describe the same drained
	// ring.
	var reg *obs.Registry
	if *metrics != "" || *trace != "" {
		reg = obs.NewRegistry()
		modcache.Shared().AttachObs(reg.Scope("modcache"))
		compiled.AttachBCEObs(reg.Scope("bce"))
		rir.AttachObs(reg.Scope("rir"))
		if *trace != "" {
			reg.EnableTracing(true)
		}
	}
	var sampler *prof.Profiler
	if *profOut != "" {
		sampler = prof.New(*profHz)
		sampler.Start()
		defer sampler.Stop()
	}
	if *nocache {
		modcache.Shared().SetEnabled(false)
	}
	if *diskdir != "" {
		tier, err := modcache.NewDiskTier(*diskdir)
		if err != nil {
			return err
		}
		if reg != nil {
			tier.AttachObs(reg.Scope("modcache").Child("disk"))
		}
		modcache.Shared().SetDiskTier(tier)
	}

	if *list {
		listAll()
		return nil
	}

	cls := workloads.Bench
	if *class == "test" {
		cls = workloads.Test
	}

	// Figure mode and single-run mode share one epilogue: stop the
	// sampler and write its profile, then drain the registry.
	finish := func() error {
		if sampler != nil {
			sampler.Stop()
			if err := writeGuestProfile(sampler, *profOut); err != nil {
				return err
			}
		}
		return finishObs(reg, *metrics, *trace)
	}

	if *fig != "" {
		cfg := &figures.Config{
			Out:     os.Stdout,
			Class:   cls,
			Quick:   *quick,
			Measure: *measure,
			Warmup:  *warmup,
			Metrics: reg,
			Prof:    sampler,
		}
		if err := runFigures(*fig, cfg); err != nil {
			return err
		}
		return finish()
	}

	if *workload == "" {
		flag.Usage()
		os.Exit(2)
	}
	wl, err := workloads.ByName(*workload)
	if err != nil {
		return err
	}
	strat, err := mem.ParseStrategy(*strategy)
	if err != nil {
		return err
	}
	hwProfile := isa.ByName(*profileN)
	if hwProfile == nil {
		return fmt.Errorf("unknown profile %q", *profileN)
	}

	res, err := harness.Run(harness.Options{
		Engine:      *engine,
		Workload:    wl,
		Class:       cls,
		Strategy:    strat,
		Profile:     hwProfile,
		Threads:     *threads,
		Measure:     *measure,
		Warmup:      *warmup,
		CountCycles: *cycles || *ops, // the histogram is the cycle model's op counts
		NoElide:     !*elide,
		Obs:         reg,
		Prof:        sampler,
		HWCounters:  *perfHW,
	})
	if err != nil {
		return err
	}
	if err := finish(); err != nil {
		return err
	}
	if *perfHW {
		printHW(res.HW)
	}
	if *ops {
		if res.Counts == nil {
			return fmt.Errorf("engine %s counts no operations", *engine)
		}
		printOps(wl.Name, *engine, hwProfile, res.Counts)
		return nil
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(res)
	}
	printResult(res)
	return nil
}

// finishObs drains the registry once, after all runs have completed
// and joined, and feeds the single snapshot to every post-run
// consumer: the -metrics sink, the -trace Chrome trace file, and the
// attribution table the trace implies. One snapshot means the
// outputs agree with each other and nothing emitted during the run
// is lost to an early drain.
func finishObs(reg *obs.Registry, metricsPath, tracePath string) error {
	if reg == nil {
		return nil
	}
	snap := reg.Snapshot(true)
	if err := writeMetrics(snap, metricsPath); err != nil {
		return err
	}
	if tracePath == "" {
		return nil
	}
	f, err := os.Create(tracePath)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, snap); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "leapsbench: wrote trace to %s (load at https://ui.perfetto.dev or chrome://tracing)\n", tracePath)
	// The file is a timeline of what fit the trace ring; the table is
	// computed from counters and covers every span of the run.
	fmt.Printf("timeline: first %d of %d span events\n", len(snap.Events), int64(len(snap.Events))+snap.DroppedEvents)
	return obs.WriteAttribution(os.Stdout, obs.Attribute(snap))
}

// writeMetrics writes the snapshot to path, picking the sink by
// extension: .txt → human summary, anything else → JSON. "-" writes
// the summary to stdout.
func writeMetrics(snap *obs.Snapshot, path string) error {
	if path == "" {
		return nil
	}
	if path == "-" {
		return obs.SummarySink{W: os.Stdout}.Write(snap)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	var sink obs.Sink = obs.JSONSink{W: f}
	if strings.HasSuffix(path, ".txt") {
		sink = obs.SummarySink{W: f}
	}
	if err := sink.Write(snap); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func runFigures(which string, cfg *figures.Config) error {
	type figFn struct {
		name string
		fn   func(*figures.Config) error
	}
	all := []figFn{
		{"1", figures.Fig1},
		{"2", figures.Fig2},
		{"3", figures.Fig3},
		{"4", figures.Fig4},
		{"5", figures.Fig5},
		{"6", figures.Fig6},
		{"replication", figures.Replication},
		{"ablation", figures.Ablation},
	}
	if which == "all" {
		for _, f := range all {
			fmt.Fprintf(cfg.Out, "\n=== Figure %s ===\n", f.name)
			if err := f.fn(cfg); err != nil {
				return err
			}
		}
		return nil
	}
	if which == "keyresults" {
		// The §1.3 key results are covered by figures 2 and 3.
		if err := figures.Fig2(cfg); err != nil {
			return err
		}
		return figures.Fig3(cfg)
	}
	for _, f := range all {
		if f.name == which {
			return f.fn(cfg)
		}
	}
	return fmt.Errorf("unknown figure %q (want 1..6, replication, ablation, keyresults, all)", which)
}

func printResult(res *harness.Result) {
	w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintf(w, "engine\t%s\n", res.Engine)
	fmt.Fprintf(w, "workload\t%s (%s)\n", res.Workload, res.Suite)
	fmt.Fprintf(w, "strategy\t%v\n", res.Strategy)
	fmt.Fprintf(w, "profile\t%s\n", res.Profile)
	fmt.Fprintf(w, "threads\t%d\n", res.Threads)
	fmt.Fprintf(w, "iterations\t%d\n", len(res.Times))
	fmt.Fprintf(w, "median exec\t%v\n", res.MedianWall.Round(time.Microsecond))
	fmt.Fprintf(w, "mean exec\t%v\n", res.MeanWall.Round(time.Microsecond))
	fmt.Fprintf(w, "throughput\t%.1f iter/s\n", res.Throughput)
	if res.MedianSimTime > 0 {
		fmt.Fprintf(w, "sim time (%s)\t%v\n", res.Profile, res.MedianSimTime.Round(time.Microsecond))
	}
	src := "host"
	if !res.SysmonOK {
		src = "simulated"
	}
	fmt.Fprintf(w, "cpu util (%s)\t%.0f%%\n", src, res.CPUPercent)
	fmt.Fprintf(w, "ctx switches (%s)\t%.0f/s\n", src, res.CtxtPerSec)
	fmt.Fprintf(w, "checksum\t%#x\n", res.Checksum)
	fmt.Fprintf(w, "vm: mmap/munmap\t%d / %d\n", res.VM.MmapCalls, res.VM.MunmapCalls)
	fmt.Fprintf(w, "vm: mprotect\t%d\n", res.VM.MprotectCalls)
	fmt.Fprintf(w, "vm: faults (minor/uffd/segv)\t%d / %d / %d\n",
		res.VM.MinorFaults, res.VM.UffdFaults, res.VM.SegvFaults)
	fmt.Fprintf(w, "vm: tlb shootdowns\t%d\n", res.VM.Shootdowns)
	fmt.Fprintf(w, "vm: mmap-lock wait\t%v\n", time.Duration(res.VM.LockWaitNs).Round(time.Microsecond))
	fmt.Fprintf(w, "vm: resident mean/peak\t%d / %d bytes\n", res.ResidentMean, res.ResidentPeak)
	w.Flush()
}

func printOps(workload, engine string, prof *isa.Profile, counts *isa.Counts) {
	total := counts.Total()
	fmt.Printf("executed operations: %s on %s (%d total)\n", workload, engine, total)
	w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(w, "CLASS\tCOUNT\tSHARE\tCYCLES")
	var memOps int64
	for c := isa.OpClass(0); c < isa.NumClasses; c++ {
		n := counts[c]
		if n == 0 {
			continue
		}
		if c == isa.ClassLoad || c == isa.ClassStore {
			memOps += n
		}
		fmt.Fprintf(w, "%v\t%d\t%.1f%%\t%.0f\n",
			c, n, float64(n)/float64(total)*100, float64(n)*prof.Cost[c])
	}
	w.Flush()
	fmt.Printf("loads+stores: %.1f%% of executed operations (paper §2.3 cites ~40%% for x86_64 binaries)\n",
		float64(memOps)/float64(total)*100)
	fmt.Printf("modelled time on %s: %v\n", prof.Name, prof.Time(counts))
}

func listAll() {
	w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(w, "WORKLOAD\tSUITE\tDESCRIPTION")
	for _, s := range workloads.All() {
		fmt.Fprintf(w, "%s\t%s\t%s\n", s.Name, s.Suite, s.Desc)
	}
	fmt.Fprintln(w, "\nENGINE\tMODELS")
	descs := map[string]string{
		harness.EngineNative:   "native Go twins (the paper's native-Clang baseline)",
		harness.EngineWAVM:     "optimizing register-IR AOT (WAVM/LLVM)",
		harness.EngineWasmtime: "one-pass optimizing AOT, no lowering (Wasmtime/Cranelift)",
		harness.EngineV8:       "tiered + GC + worker threads (V8 TurboFan)",
		harness.EngineWasm3:    "threaded interpreter (Wasm3), trap-only",
	}
	for _, e := range harness.EngineNames() {
		fmt.Fprintf(w, "%s\t%s\n", e, descs[e])
	}
	fmt.Fprintln(w, "\nSTRATEGY\t")
	for _, s := range mem.Strategies() {
		fmt.Fprintf(w, "%v\t\n", s)
	}
	w.Flush()
}
