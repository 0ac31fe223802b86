package figures

import (
	"fmt"
	"time"

	"leapsandbounds/internal/harness"
	"leapsandbounds/internal/isa"
	"leapsandbounds/internal/mem"
	"leapsandbounds/internal/workloads"
)

// Ablation isolates the design choices behind the paper's uffd
// mitigation and the simulated kernel's cost parameters:
//
//  1. arena pooling: uffd with and without the hazard-pointer arena
//     pool, against mprotect — showing that lock-free fault handling
//     alone does not remove the mmap-lock bottleneck; the userspace
//     arena management is the other half of the mitigation;
//  2. TLB shootdown cost: mprotect scaling as the simulated IPI cost
//     sweeps from zero to 4x, demonstrating that the contention
//     effect is lock-hold-time driven;
//  3. transparent huge pages: resident memory with THP off, 2 MiB
//     and 1 GiB, isolating Figure 6's artifact.
func Ablation(c *Config) error {
	c.defaults()
	if err := ablatePooling(c); err != nil {
		return err
	}
	if err := ablateShootdown(c); err != nil {
		return err
	}
	if err := ablateMultiprocess(c); err != nil {
		return err
	}
	if err := ablateUffdDelivery(c); err != nil {
		return err
	}
	if err := ablateCommitGranularity(c); err != nil {
		return err
	}
	if err := ablateTHP(c); err != nil {
		return err
	}
	if err := ablateElision(c); err != nil {
		return err
	}
	if err := ablateRegisterIR(c); err != nil {
		return err
	}
	return ablateHostcall(c)
}

// ablateHostcall measures the host boundary: the syscall-heavy wasi
// workloads per strategy, with the hostcall count from the simulated
// process's counters. The checksum column proves the boundary is
// strategy-transparent (identical results while the eager-copy
// strategies pay per-view copies and the virtual-memory strategies
// fault pages in under the view's bulk check).
func ablateHostcall(c *Config) error {
	fmt.Fprintf(c.Out, "\nAblation 9: hostcall boundary (wasi workloads, wavm, 1 thread)\n")
	fmt.Fprintf(c.Out, "%-10s %-10s %12s %10s %18s\n",
		"benchmark", "strategy", "median", "hostcalls", "checksum")
	for _, wl := range workloads.Suite("wasi") {
		for _, s := range mem.Strategies() {
			res, err := c.run(harness.Options{
				Engine: harness.EngineWAVM, Workload: wl,
				Strategy: s, Profile: isa.X86_64(),
			})
			if err != nil {
				return err
			}
			fmt.Fprintf(c.Out, "%-10s %-10s %12v %10d %#18x\n",
				wl.Name, s, res.MedianWall.Round(time.Microsecond),
				res.VM.Hostcalls, res.Checksum)
		}
	}
	return nil
}

// ablateRegisterIR measures the stack→register lowering on the
// optimizing engine: the same kernels with the recompile tier's
// register IR off and on, per strategy, with elision at the engine
// default in both arms so only the lowering moves. The win is
// dispatch-count driven — dead push/pop elimination and compare+
// branch / load+op fusion shrink the op stream — so unlike elision
// it shows up under every strategy.
func ablateRegisterIR(c *Config) error {
	fmt.Fprintf(c.Out, "\nAblation 8: register-IR lowering (wavm, 1 thread)\n")
	fmt.Fprintf(c.Out, "%-10s %-10s %12s %12s %9s\n",
		"benchmark", "strategy", "rir=off", "rir=on", "speedup")
	for _, name := range []string{"gemm", "atax"} {
		wl, err := workloads.ByName(name)
		if err != nil {
			return err
		}
		for _, s := range []mem.Strategy{mem.Trap, mem.Mprotect} {
			var wall [2]time.Duration
			for i, noRIR := range []bool{true, false} {
				res, err := c.run(harness.Options{
					Engine: harness.EngineWAVM, Workload: wl,
					Strategy: s, Profile: isa.X86_64(), NoRIR: noRIR,
				})
				if err != nil {
					return err
				}
				wall[i] = res.MedianWall
			}
			fmt.Fprintf(c.Out, "%-10s %-10s %12v %12v %8.2fx\n",
				name, s,
				wall[0].Round(time.Microsecond), wall[1].Round(time.Microsecond),
				float64(wall[0])/float64(wall[1]))
		}
	}
	return nil
}

// ablateElision measures the bounds-check elision pass on the
// optimizing engine: the same kernels with the pass on and off, per
// strategy. The win concentrates in the explicit-check strategies
// (trap, and none's watermark arithmetic); clamp never elides — its
// redirect semantics depend on per-access clamping — so its rows are
// the no-op control.
func ablateElision(c *Config) error {
	fmt.Fprintf(c.Out, "\nAblation 7: bounds-check elision (wavm, 1 thread)\n")
	fmt.Fprintf(c.Out, "%-10s %-10s %12s %12s %9s\n",
		"benchmark", "strategy", "elide=off", "elide=on", "speedup")
	for _, name := range []string{"gemm", "atax"} {
		wl, err := workloads.ByName(name)
		if err != nil {
			return err
		}
		for _, s := range []mem.Strategy{mem.None, mem.Trap, mem.Mprotect, mem.Clamp} {
			var wall [2]time.Duration
			for i, noElide := range []bool{true, false} {
				res, err := c.run(harness.Options{
					Engine: harness.EngineWAVM, Workload: wl,
					Strategy: s, Profile: isa.X86_64(), NoElide: noElide,
				})
				if err != nil {
					return err
				}
				wall[i] = res.MedianWall
			}
			fmt.Fprintf(c.Out, "%-10s %-10s %12v %12v %8.2fx\n",
				name, s,
				wall[0].Round(time.Microsecond), wall[1].Round(time.Microsecond),
				float64(wall[0])/float64(wall[1]))
		}
	}
	return nil
}

// ablateCommitGranularity compares the mprotect strategy's two
// commit policies: lazy per-fault commits (the paper's description)
// against eager grow-time commits (what production runtimes do).
// Eager trades many small critical sections for few large ones —
// the kernel lock stays the bottleneck either way.
func ablateCommitGranularity(c *Config) error {
	wl, err := workloads.ByName("atax")
	if err != nil {
		return err
	}
	threads := c.MaxThreads
	fmt.Fprintf(c.Out, "\nAblation 5: mprotect commit granularity (atax, wasmtime, %d threads)\n", threads)
	fmt.Fprintf(c.Out, "%-14s %12s %14s %12s\n", "commit", "median", "lock wait", "mprotects")
	for _, eager := range []bool{false, true} {
		res, err := c.run(harness.Options{
			Engine: harness.EngineWasmtime, Workload: wl,
			Strategy: mem.Mprotect, Profile: isa.X86_64(),
			Threads: threads, EagerCommit: eager,
		})
		if err != nil {
			return err
		}
		label := "lazy (fault)"
		if eager {
			label = "eager (grow)"
		}
		fmt.Fprintf(c.Out, "%-14s %12v %14v %12d\n",
			label, res.MedianWall.Round(time.Microsecond),
			time.Duration(res.VM.LockWaitNs).Round(time.Microsecond),
			res.VM.MprotectCalls)
	}
	return nil
}

// ablateUffdDelivery compares userfaultfd's two delivery modes: the
// SIGBUS handler running on the faulting thread (the paper's choice)
// against the poll-based handler thread, whose per-fault cross-
// thread round trip is the latency the paper's footnote 2 cites.
func ablateUffdDelivery(c *Config) error {
	wl, err := workloads.ByName("atax")
	if err != nil {
		return err
	}
	threads := c.MaxThreads
	fmt.Fprintf(c.Out, "\nAblation 4: uffd delivery mode (atax, wasmtime, %d threads)\n", threads)
	fmt.Fprintf(c.Out, "%-14s %12s %12s\n", "delivery", "median", "faults")
	for _, poll := range []bool{false, true} {
		res, err := c.run(harness.Options{
			Engine: harness.EngineWasmtime, Workload: wl,
			Strategy: mem.Uffd, Profile: isa.X86_64(),
			Threads: threads, UffdPoll: poll,
		})
		if err != nil {
			return err
		}
		label := "sigbus"
		if poll {
			label = "poll"
		}
		fmt.Fprintf(c.Out, "%-14s %12v %12d\n",
			label, res.MedianWall.Round(time.Microsecond), res.VM.UffdFaults)
	}
	return nil
}

// ablateMultiprocess demonstrates the paper's §4.2.1 alternative
// mitigation: "limit the number of executor threads per process, and
// instead build a multiprocess runtime". Splitting workers across
// separate address spaces removes the shared-lock contention without
// changing the bounds-checking strategy.
func ablateMultiprocess(c *Config) error {
	wl, err := workloads.ByName("atax")
	if err != nil {
		return err
	}
	threads := c.MaxThreads
	fmt.Fprintf(c.Out, "\nAblation 3: multiprocess runtime (atax, wasmtime, mprotect, %d threads)\n", threads)
	fmt.Fprintf(c.Out, "%-14s %12s %14s\n", "processes", "median", "lock wait")
	for _, procs := range []int{1, threads} {
		res, err := c.run(harness.Options{
			Engine: harness.EngineWasmtime, Workload: wl,
			Strategy: mem.Mprotect, Profile: isa.X86_64(),
			Threads: threads, Processes: procs,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(c.Out, "%-14d %12v %14v\n",
			procs, res.MedianWall.Round(time.Microsecond),
			time.Duration(res.VM.LockWaitNs).Round(time.Microsecond))
	}
	return nil
}

func ablatePooling(c *Config) error {
	wl, err := workloads.ByName("atax")
	if err != nil {
		return err
	}
	threads := c.MaxThreads
	fmt.Fprintf(c.Out, "\nAblation 1: arena pooling (atax, wasmtime, %d threads)\n", threads)
	fmt.Fprintf(c.Out, "%-22s %12s %14s %10s %10s\n",
		"configuration", "median", "lock wait", "mmaps", "mprotects")

	type cfg struct {
		name     string
		strategy mem.Strategy
		noPool   bool
	}
	for _, tc := range []cfg{
		{"mprotect", mem.Mprotect, false},
		{"uffd (no pool)", mem.Uffd, true},
		{"uffd (pooled)", mem.Uffd, false},
	} {
		res, err := c.run(harness.Options{
			Engine: harness.EngineWasmtime, Workload: wl,
			Strategy: tc.strategy, Profile: isa.X86_64(),
			Threads: threads, UffdNoPool: tc.noPool,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(c.Out, "%-22s %12v %14v %10d %10d\n",
			tc.name, res.MedianWall.Round(time.Microsecond),
			time.Duration(res.VM.LockWaitNs).Round(time.Microsecond),
			res.VM.MmapCalls, res.VM.MprotectCalls)
	}
	return nil
}

func ablateShootdown(c *Config) error {
	wl, err := workloads.ByName("atax")
	if err != nil {
		return err
	}
	threads := c.MaxThreads
	fmt.Fprintf(c.Out, "\nAblation 2: TLB shootdown cost sweep (atax, wasmtime, mprotect, %d threads)\n", threads)
	fmt.Fprintf(c.Out, "%-14s %12s %14s\n", "shootdown", "median", "lock wait")
	base := isa.X86_64()
	for _, scale := range []float64{0, 1, 2, 4} {
		prof := *base
		prof.Name = fmt.Sprintf("%s:shootdown=%.0fx", base.Name, scale) // its own -metrics scope
		prof.VM.ShootdownBase = time.Duration(float64(base.VM.ShootdownBase) * scale)
		prof.VM.ShootdownPerThread = time.Duration(float64(base.VM.ShootdownPerThread) * scale)
		res, err := c.run(harness.Options{
			Engine: harness.EngineWasmtime, Workload: wl,
			Strategy: mem.Mprotect, Profile: &prof, Threads: threads,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(c.Out, "%-14s %12v %14v\n",
			fmt.Sprintf("%.0fx", scale),
			res.MedianWall.Round(time.Microsecond),
			time.Duration(res.VM.LockWaitNs).Round(time.Microsecond))
	}
	return nil
}

func ablateTHP(c *Config) error {
	wl, err := workloads.ByName("gemm")
	if err != nil {
		return err
	}
	fmt.Fprintf(c.Out, "\nAblation 6: transparent huge pages (gemm, wasmtime, mprotect)\n")
	fmt.Fprintf(c.Out, "%-14s %14s %14s %8s\n", "THP size", "resident mean", "resident peak", "promos")
	base := isa.X86_64()
	for _, thp := range []uint64{0, 2 << 20, 1 << 30} {
		prof := *base
		prof.Name = fmt.Sprintf("%s:thp=%d", base.Name, thp) // its own -metrics scope
		prof.VM.THPSize = thp
		res, err := c.run(harness.Options{
			Engine: harness.EngineWasmtime, Workload: wl,
			Strategy: mem.Mprotect, Profile: &prof, Threads: 2,
		})
		if err != nil {
			return err
		}
		label := "off"
		if thp > 0 {
			label = fmtBytes(int64(thp))
		}
		fmt.Fprintf(c.Out, "%-14s %14s %14s %8d\n",
			label, fmtBytes(res.ResidentMean), fmtBytes(res.ResidentPeak),
			res.VM.THPPromotions)
	}
	return nil
}
