// Package figures regenerates every table and figure of the paper's
// evaluation section (§4) from the simulated system: each FigN
// function runs the relevant slice of the engine × strategy × ISA ×
// thread-count matrix through the harness and prints the same rows
// or series the paper plots. EXPERIMENTS.md records the mapping and
// the paper-vs-measured comparison.
package figures

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"leapsandbounds/internal/harness"
	"leapsandbounds/internal/isa"
	"leapsandbounds/internal/mem"
	"leapsandbounds/internal/obs"
	"leapsandbounds/internal/prof"
	"leapsandbounds/internal/stats"
	"leapsandbounds/internal/workloads"
)

// Config controls figure regeneration. The figure functions take it
// by pointer because it also holds what has been measured so far that
// more than one figure prints (see scaling): pass the same Config to
// every figure of one regeneration.
type Config struct {
	// Out receives the rendered tables.
	Out io.Writer
	// Class selects problem sizes (Bench by default).
	Class workloads.Class
	// Quick restricts workloads to a representative subset and
	// reduces iteration counts, for smoke runs.
	Quick bool
	// Measure and Warmup override per-thread iteration counts
	// (0 = defaults: 8/2, or 3/1 in Quick mode).
	Measure, Warmup int
	// MaxThreads caps the thread axis (defaults to the paper's 16,
	// bounded by the host's CPU count).
	MaxThreads int
	// Metrics, when non-nil, collects every run's counters,
	// histograms and spans under per-run labeled scopes
	// (see harness.Options.Obs); leapsbench -metrics wires it.
	Metrics *obs.Registry
	// Prof, when non-nil, samples every guest run into the given
	// profiler (see harness.Options.Prof); leapsbench -profile wires it.
	Prof *prof.Profiler

	// scalings holds each suite's thread-scaling matrix once measured.
	scalings map[string][]scalingRow
}

func (c *Config) defaults() {
	if c.Out == nil {
		c.Out = io.Discard
	}
	if c.Measure == 0 {
		if c.Quick {
			c.Measure = 3
		} else {
			c.Measure = 8
		}
	}
	if c.Warmup == 0 {
		c.Warmup = 1
		if !c.Quick {
			c.Warmup = 2
		}
	}
	if c.MaxThreads == 0 {
		// The paper's axis is 1/4/16 threads on 16-core hosts. On
		// smaller hosts, keep at least 4 workers: mprotect-lock
		// serialization (the effect under study) appears with any
		// concurrent instance churn, oversubscribed or not.
		c.MaxThreads = min(16, max(4, runtime.NumCPU()))
	}
}

// suiteWorkloads returns the figure's workload set.
func (c *Config) suiteWorkloads(suite string) []workloads.Spec {
	all := workloads.Suite(suite)
	if !c.Quick {
		return all
	}
	quick := map[string]bool{
		"gemm": true, "cholesky": true, "atax": true, "jacobi-2d": true,
		"505.mcf": true, "557.xz": true, "519.lbm": true,
	}
	var out []workloads.Spec
	for _, s := range all {
		if quick[s.Name] {
			out = append(out, s)
		}
	}
	if len(out) == 0 {
		out = all[:min(2, len(all))]
	}
	return out
}

// run executes one configuration, failing loudly: a figure with a
// hole is worse than an error. Every figure cell is measured here,
// one at a time in the order the figure asks: a timed run shares the
// host with no other (DESIGN §9).
func (c *Config) run(opts harness.Options) (*harness.Result, error) {
	opts.Class = c.Class
	opts.Measure = c.Measure
	opts.Warmup = c.Warmup
	opts.Obs = c.Metrics
	opts.Prof = c.Prof
	return harness.Run(opts)
}

// counted runs one single-threaded cell with cycle accounting — but
// for the native Go twin, which has no op stream to count.
func (c *Config) counted(eng string, wl workloads.Spec, s mem.Strategy, prof *isa.Profile) (*harness.Result, error) {
	return c.run(harness.Options{
		Engine: eng, Workload: wl, Strategy: s, Profile: prof,
		CountCycles: eng != harness.EngineNative,
	})
}

// nativeAdvantage is the single calibration constant of the cycle
// model: the paper's x86-64 gap between WAVM (no checks) and native
// Clang is about 8%; the simulated-native baseline is defined as the
// optimized wasm op stream discounted by this factor. It is the same
// constant for every ISA, engine and strategy, so it cancels out of
// all strategy-vs-strategy and engine-vs-engine comparisons.
const nativeAdvantage = 1.08

// Fig1 regenerates Figure 1: the per-benchmark cost of bounds
// checking on the V8 analog, x86-64, normalized to the same engine
// with checks disabled. Two ratios are reported:
//
//   - "check ratio" (cycle model, explicit checks vs none): the
//     codegen-level cost of checking every access, which is what
//     produces the paper's 20-220% per-benchmark spread — benchmarks
//     differ in their memory-access density;
//   - "vm ratio" (wall, mprotect vs none): the fault/commit-path
//     cost of the virtual-memory default, small for single-threaded
//     runs exactly as the paper's §4.1 finds (1-2 percentage
//     points).
func Fig1(c *Config) error {
	c.defaults()
	fmt.Fprintf(c.Out, "Figure 1: cost of bounds checking per benchmark (V8 analog, x86_64)\n")
	fmt.Fprintf(c.Out, "%-14s %-10s %12s %12s %12s %12s\n",
		"benchmark", "suite", "none", "mprotect", "vm ratio", "check ratio")

	// The wall-clock pair runs without cycle accounting (the counting
	// loop would bias whichever side carries it); the cycle-model pair
	// gives the codegen-level check cost.
	arms := [4]struct {
		strategy mem.Strategy
		cycles   bool
	}{{mem.None, false}, {mem.Mprotect, false}, {mem.None, true}, {mem.Trap, true}}
	for _, suite := range []string{"polybench", "spec"} {
		for _, wl := range c.suiteWorkloads(suite) {
			var res [len(arms)]*harness.Result
			for i, arm := range arms {
				var err error
				res[i], err = c.run(harness.Options{
					Engine: harness.EngineV8, Workload: wl, Strategy: arm.strategy,
					Profile: isa.X86_64(), CountCycles: arm.cycles,
				})
				if err != nil {
					return err
				}
			}
			noneWall, mp, noneSim, checked := res[0], res[1], res[2], res[3]
			vmRatio := float64(mp.MedianWall) / float64(noneWall.MedianWall)
			checkRatio := float64(checked.MedianSimTime) / float64(noneSim.MedianSimTime)
			fmt.Fprintf(c.Out, "%-14s %-10s %12v %12v %12.3f %12.3f\n",
				wl.Name, wl.Suite, noneWall.MedianWall.Round(time.Microsecond),
				mp.MedianWall.Round(time.Microsecond), vmRatio, checkRatio)
		}
	}
	return nil
}

// fig2Engines returns the engines evaluated per ISA: the paper could
// not run WAVM or Wasmtime on RISC-V (§3.4).
func fig2Engines(profile *isa.Profile) []string {
	if profile.Name == "riscv64" {
		return []string{harness.EngineWasm3, harness.EngineV8}
	}
	return harness.WasmEngineNames()
}

// Fig2 regenerates Figures 2a/2b/2c: the geometric mean of
// per-benchmark median execution-time ratios against the native
// baseline, per engine × strategy, on each ISA. Two baselines are
// reported: wall time against the real native Go twin, and the
// cycle-model time against the simulated native baseline (see
// nativeAdvantage).
func Fig2(c *Config) error {
	c.defaults()
	for _, prof := range isa.Profiles() {
		suites := []string{"polybench", "spec"}
		if prof.Name == "riscv64" {
			suites = []string{"polybench"} // paper: 1 GiB board, PBC only
		}
		for _, suite := range suites {
			if err := fig2Panel(c, prof, suite); err != nil {
				return err
			}
		}
	}
	return nil
}

func fig2Panel(c *Config, prof *isa.Profile, suite string) error {
	wls := c.suiteWorkloads(suite)
	fmt.Fprintf(c.Out, "\nFigure 2 (%s, %s): geomean of medians vs native\n", prof.Name, suite)
	fmt.Fprintf(c.Out, "(wall ratios: every wasm run carries cycle accounting, so rows compare fairly with each other but carry a uniform counting overhead against the native wall baseline)\n")
	fmt.Fprintf(c.Out, "%-10s %-10s %14s %14s\n", "engine", "strategy", "wall ratio", "sim ratio")

	// cell measures one engine × strategy over the panel's workloads
	// and returns the median wall and cycle-model times per workload.
	cell := func(eng string, s mem.Strategy) (wall, sim []float64, err error) {
		for _, wl := range wls {
			r, err := c.counted(eng, wl, s, prof)
			if err != nil {
				return nil, nil, err
			}
			wall = append(wall, float64(r.MedianWall))
			sim = append(sim, float64(r.MedianSimTime))
		}
		return wall, sim, nil
	}
	nativeWall, _, err := cell(harness.EngineNative, mem.None)
	if err != nil {
		return err
	}
	// The simulated-native baseline is the optimized wavm op stream
	// with no checks, discounted by nativeAdvantage — the panel's own
	// wavm/none cell where its matrix has one (riscv64's has no wavm
	// rows; the cycle model still prices the baseline there).
	baseWall, baseSim, err := cell(harness.EngineWAVM, mem.None)
	if err != nil {
		return err
	}
	nativeSim := make([]float64, len(wls))
	for i := range baseSim {
		nativeSim[i] = baseSim[i] / nativeAdvantage
	}
	for _, eng := range fig2Engines(prof) {
		strategies := mem.Strategies()
		if eng == harness.EngineWasm3 {
			strategies = []mem.Strategy{mem.Trap} // wasm3 is trap-only (paper §3.2)
		}
		for _, s := range strategies {
			wall, sim := baseWall, baseSim
			if eng != harness.EngineWAVM || s != mem.None {
				if wall, sim, err = cell(eng, s); err != nil {
					return err
				}
			}
			fmt.Fprintf(c.Out, "%-10s %-10s %14.3f %14.3f\n", eng, s,
				stats.GeomeanRatios(wall, nativeWall), stats.GeomeanRatios(sim, nativeSim))
		}
	}
	return nil
}

// threadAxis returns the paper's 1/4/16 thread counts bounded by the
// host configuration.
func (c *Config) threadAxis() []int {
	axis := []int{1}
	mid := min(4, c.MaxThreads)
	if mid > 1 {
		axis = append(axis, mid)
	}
	if c.MaxThreads > mid {
		axis = append(axis, c.MaxThreads)
	}
	return axis
}

// scalingRow holds one engine × strategy series over thread counts.
type scalingRow struct {
	engine   string
	strategy mem.Strategy
	results  []*harness.Result
}

// scaling returns the suite's thread-scaling matrix — the thread axis
// and one row per engine × strategy — measuring it the first time it
// is asked for: Figures 3, 4 and 5 are three views of the same runs
// (as in the paper), so a Config measures each cell once however many
// of the three it prints.
func (c *Config) scaling(suite string) ([]int, []scalingRow, error) {
	axis := c.threadAxis()
	if rows, ok := c.scalings[suite]; ok {
		return axis, rows, nil
	}
	wls := c.suiteWorkloads(suite)
	if c.Quick && len(wls) > 2 {
		wls = wls[:2]
	}
	var rows []scalingRow
	for _, eng := range []string{harness.EngineWAVM, harness.EngineWasmtime, harness.EngineV8} {
		for _, s := range []mem.Strategy{mem.None, mem.Trap, mem.Mprotect, mem.Uffd} {
			row := scalingRow{engine: eng, strategy: s}
			for _, threads := range axis {
				// Aggregate throughput over the suite subset: sum
				// normalized throughput across workloads.
				var agg *harness.Result
				for _, wl := range wls {
					r, err := c.run(harness.Options{
						Engine: eng, Workload: wl,
						Strategy: s, Profile: isa.X86_64(), Threads: threads,
					})
					if err != nil {
						return nil, nil, err
					}
					if agg == nil {
						agg = r
						continue
					}
					agg.Throughput += r.Throughput
					agg.CPUPercent += r.CPUPercent
					agg.CtxtPerSec += r.CtxtPerSec
					agg.VM.LockWaitNs += r.VM.LockWaitNs
					agg.VM.MprotectCalls += r.VM.MprotectCalls
					agg.VM.UffdFaults += r.VM.UffdFaults
				}
				agg.CPUPercent /= float64(len(wls))
				agg.CtxtPerSec /= float64(len(wls))
				row.results = append(row.results, agg)
			}
			rows = append(rows, row)
		}
	}
	if c.scalings == nil {
		c.scalings = make(map[string][]scalingRow)
	}
	c.scalings[suite] = rows
	return axis, rows, nil
}

// Fig3 regenerates Figures 3a/3b: performance scaling with thread
// count (throughput per thread normalized to the single-thread run).
func Fig3(c *Config) error {
	c.defaults()
	for _, suite := range []string{"polybench", "spec"} {
		axis, rows, err := c.scaling(suite)
		if err != nil {
			return err
		}
		fmt.Fprintf(c.Out, "\nFigure 3 (%s): scaling efficiency vs threads (x86_64)\n", suite)
		fmt.Fprintf(c.Out, "%-10s %-10s", "engine", "strategy")
		for _, t := range axis {
			fmt.Fprintf(c.Out, " %8dT", t)
		}
		fmt.Fprintf(c.Out, " %14s\n", "lockwait@max")
		for _, row := range rows {
			fmt.Fprintf(c.Out, "%-10s %-10s", row.engine, row.strategy)
			base := row.results[0].Throughput
			for i, res := range row.results {
				eff := 0.0
				if base > 0 {
					eff = res.Throughput / (base * float64(axis[i]))
				}
				fmt.Fprintf(c.Out, " %8.2f", eff)
			}
			last := row.results[len(row.results)-1]
			fmt.Fprintf(c.Out, " %14v\n", time.Duration(last.VM.LockWaitNs).Round(time.Microsecond))
		}
	}
	return nil
}

// Fig4 regenerates Figures 4a-4d: average CPU utilization during
// execution, single-threaded and fully-threaded.
func Fig4(c *Config) error {
	c.defaults()
	axis, rows, err := c.scaling("polybench")
	if err != nil {
		return err
	}
	fmt.Fprintf(c.Out, "\nFigure 4 (polybench): avg CPU utilization %% (100%% = one core)\n")
	fmt.Fprintf(c.Out, "%-10s %-10s", "engine", "strategy")
	for _, t := range axis {
		fmt.Fprintf(c.Out, " %9dT", t)
	}
	fmt.Fprintf(c.Out, "\n")
	for _, row := range rows {
		fmt.Fprintf(c.Out, "%-10s %-10s", row.engine, row.strategy)
		for _, res := range row.results {
			fmt.Fprintf(c.Out, " %9.0f%%", res.CPUPercent)
		}
		fmt.Fprintf(c.Out, "\n")
	}
	if len(rows) > 0 && !rows[0].results[0].SysmonOK {
		fmt.Fprintf(c.Out, "(host counters unavailable: utilization derived from simulated mmap-lock blocking)\n")
	}
	return nil
}

// Fig5 regenerates Figures 5a/5b: context switches per second, with
// the simulated kernel's lock-wait time as the mechanism column.
func Fig5(c *Config) error {
	c.defaults()
	axis, rows, err := c.scaling("polybench")
	if err != nil {
		return err
	}
	fmt.Fprintf(c.Out, "\nFigure 5 (polybench): context switches/s and mmap-lock wait\n")
	fmt.Fprintf(c.Out, "%-10s %-10s", "engine", "strategy")
	for _, t := range axis {
		fmt.Fprintf(c.Out, " %10dT", t)
	}
	fmt.Fprintf(c.Out, " %14s\n", "lockwait@max")
	for _, row := range rows {
		fmt.Fprintf(c.Out, "%-10s %-10s", row.engine, row.strategy)
		for _, res := range row.results {
			fmt.Fprintf(c.Out, " %11.0f", res.CtxtPerSec)
		}
		last := row.results[len(row.results)-1]
		fmt.Fprintf(c.Out, " %14v\n", time.Duration(last.VM.LockWaitNs).Round(time.Microsecond))
	}
	if len(rows) > 0 && !rows[0].results[0].SysmonOK {
		fmt.Fprintf(c.Out, "(host counters unavailable: rate derived from contended simulated-lock acquisitions)\n")
	}
	return nil
}

// Fig6 regenerates Figures 6a/6b: average memory usage per runtime ×
// strategy, on the x86-64 profile (1 GiB transparent huge pages) and
// the Armv8 profile (2 MiB), exposing the THP artifact the paper
// explains in §4.3.
func Fig6(c *Config) error {
	c.defaults()
	wls := c.suiteWorkloads("polybench")
	for _, prof := range []*isa.Profile{isa.X86_64(), isa.ARMv8()} {
		fmt.Fprintf(c.Out, "\nFigure 6 (%s): average simulated resident memory (polybench)\n", prof.Name)
		fmt.Fprintf(c.Out, "%-10s %-10s %14s %14s %8s\n",
			"engine", "strategy", "mean", "peak", "THP")
		for _, eng := range []string{harness.EngineWAVM, harness.EngineWasmtime, harness.EngineV8} {
			for _, s := range []mem.Strategy{mem.None, mem.Trap, mem.Mprotect, mem.Uffd} {
				var mean, peak, thp int64
				for _, wl := range wls {
					r, err := c.run(harness.Options{
						Engine: eng, Workload: wl, Strategy: s, Profile: prof, Threads: 2,
					})
					if err != nil {
						return err
					}
					mean += r.ResidentMean
					if r.ResidentPeak > peak {
						peak = r.ResidentPeak
					}
					thp += r.VM.THPPromotions
				}
				mean /= int64(len(wls))
				fmt.Fprintf(c.Out, "%-10s %-10s %14s %14s %8d\n",
					eng, s, fmtBytes(mean), fmtBytes(peak), thp)
			}
		}
	}
	return nil
}

// Replication regenerates the §4.4 comparisons with prior work: the
// Wasm3-vs-V8 interpreter gap (Titzer 2022), the PolyBench
// near-native distribution (Rossberg et al. 2018) and the SPEC
// geomean slowdown (Jangda et al. 2019).
func Replication(c *Config) error {
	c.defaults()
	prof := isa.X86_64()

	// Wasm3 vs V8 on PolyBench (Titzer 2022: roughly 10x; the paper
	// measures 6-11x). Engine-vs-engine codegen gaps live in the
	// cycle model; the wall-clock gap between a Go switch
	// interpreter and a Go switch over register IR is structurally
	// compressed.
	wls := c.suiteWorkloads("polybench")
	var simRatios, wallRatios []float64
	for _, wl := range wls {
		w3, err := c.counted(harness.EngineWasm3, wl, mem.Trap, prof)
		if err != nil {
			return err
		}
		v8, err := c.counted(harness.EngineV8, wl, mem.Mprotect, prof)
		if err != nil {
			return err
		}
		simRatios = append(simRatios, float64(w3.MedianSimTime)/float64(v8.MedianSimTime))
		wallRatios = append(wallRatios, float64(w3.MedianWall)/float64(v8.MedianWall))
	}
	fmt.Fprintf(c.Out, "\nReplication (§4.4):\n")
	fmt.Fprintf(c.Out, "wasm3 vs v8 on PolyBench: geomean %.1fx sim, %.1fx wall (paper: 6-11x)\n",
		stats.Geomean(simRatios), stats.Geomean(wallRatios))

	// SPEC slowdown vs native on V8 (Jangda et al.: 1.55x; the paper
	// measures 1.69x on x86-64).
	var v8Sim, natSim, v8Wall, natWall []float64
	for _, wl := range c.suiteWorkloads("spec") {
		v8, err := c.counted(harness.EngineV8, wl, mem.Mprotect, prof)
		if err != nil {
			return err
		}
		simNat, err := c.counted(harness.EngineWAVM, wl, mem.None, prof)
		if err != nil {
			return err
		}
		nat, err := c.counted(harness.EngineNative, wl, mem.None, prof)
		if err != nil {
			return err
		}
		v8Sim = append(v8Sim, float64(v8.MedianSimTime))
		natSim = append(natSim, float64(simNat.MedianSimTime)/nativeAdvantage)
		v8Wall = append(v8Wall, float64(v8.MedianWall))
		natWall = append(natWall, float64(nat.MedianWall))
	}
	fmt.Fprintf(c.Out, "v8 vs native on SPEC: geomean %.2fx sim (paper: 1.69x on x86_64), %.1fx wall (vs the Go-compiled twin; structurally larger for an engine written in Go)\n",
		stats.GeomeanRatios(v8Sim, natSim), stats.GeomeanRatios(v8Wall, natWall))

	// PolyBench distribution vs native on the fastest engine.
	within10, within2x := 0, 0
	for _, wl := range wls {
		wv, err := c.counted(harness.EngineWAVM, wl, mem.Mprotect, prof)
		if err != nil {
			return err
		}
		nat, err := c.counted(harness.EngineWAVM, wl, mem.None, prof)
		if err != nil {
			return err
		}
		r := float64(wv.MedianSimTime) / (float64(nat.MedianSimTime) / nativeAdvantage)
		if r <= 1.10 {
			within10++
		}
		if r <= 2.0 {
			within2x++
		}
	}
	fmt.Fprintf(c.Out, "PolyBench (wavm/mprotect) sim vs native: %d/%d within 10%%, %d/%d within 2x\n",
		within10, len(wls), within2x, len(wls))
	fmt.Fprintf(c.Out, "  (Rossberg et al. 2018 measured 2017-era V8: seven benchmarks within 10%%, nearly all within 2x; an optimizing AOT tier with VM-backed checks lands uniformly near-native, consistent with the paper's finding that performance-oriented runtimes have since approached native)\n")
	return nil
}

func fmtBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.2f MiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.2f KiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%d B", b)
	}
}
