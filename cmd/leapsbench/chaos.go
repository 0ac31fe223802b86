// Chaos mode: leapsbench -chaos <seed> runs a small sweep with
// deterministic fault injection enabled across the vmm/mem fault
// paths, then runs it again and verifies the two passes agree on
// every checksum, per-run failure cause, and injection/recovery
// counter — the replay contract a failing chaos run is debugged
// under. Exits non-zero if the passes diverge.
package main

import (
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"

	"leapsandbounds/internal/faultinject"
	"leapsandbounds/internal/harness"
	"leapsandbounds/internal/isa"
	"leapsandbounds/internal/mem"
	"leapsandbounds/internal/obs"
	"leapsandbounds/internal/workloads"
)

// chaosRun is one configuration's deterministic outcome.
type chaosRun struct {
	Label       string
	Checksum    uint64
	FailedIters int
	Causes      map[string]int
}

// chaosPass is everything one sweep pass must reproduce byte-for-byte
// on replay.
type chaosPass struct {
	Runs     []chaosRun
	Counters map[string]int64
}

// chaosSweep runs one pass: the virtual-memory strategies (the ones
// with fault paths to injure) on the compiled engine, one run at a
// time and single-threaded — the replay contract's deterministic
// regime.
func chaosSweep(seed int64, quick bool) (*chaosPass, error) {
	names := []string{"gemm", "jacobi-1d", "atax"}
	if quick {
		names = names[:1]
	}
	plan := faultinject.ChaosPlan(seed)
	reg := obs.NewRegistry()
	pass := &chaosPass{}
	for _, n := range names {
		wl, err := workloads.ByName(n)
		if err != nil {
			return nil, err
		}
		for _, s := range []mem.Strategy{mem.Mprotect, mem.Uffd} {
			opts := harness.Options{
				Engine:   harness.EngineWAVM,
				Workload: wl,
				Class:    workloads.Test,
				Strategy: s,
				Profile:  isa.X86_64(),
				Threads:  1,
				Warmup:   2,
				Measure:  6,
				Fault:    plan,
				Obs:      reg,
			}
			res, err := harness.Run(opts)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", opts.RunLabel(), err)
			}
			pass.Runs = append(pass.Runs, chaosRun{
				Label:       opts.RunLabel(),
				Checksum:    res.Checksum,
				FailedIters: res.FailedIters,
				Causes:      res.FailureCauses,
			})
		}
	}
	pass.Counters = faultinject.ReplayCounters(reg.Snapshot(false).Counters)
	return pass, nil
}

// runChaos executes the chaos sweep twice under the same seed and
// reports whether the replay reproduced the first pass exactly.
func runChaos(seed int64, quick bool) error {
	fmt.Printf("chaos mode: seed %d (replay with: leapsbench -chaos %d)\n\n", seed, seed)
	first, err := chaosSweep(seed, quick)
	if err != nil {
		return err
	}

	fmt.Printf("%-40s %-18s %s\n", "run", "checksum", "failed iterations (cause)")
	for _, r := range first.Runs {
		causes := "-"
		if r.FailedIters > 0 {
			parts := make([]string, 0, len(r.Causes))
			for c, n := range r.Causes {
				parts = append(parts, fmt.Sprintf("%s x%d", c, n))
			}
			sort.Strings(parts)
			causes = fmt.Sprintf("%d (%s)", r.FailedIters, strings.Join(parts, ", "))
		}
		fmt.Printf("%-40s %-18s %s\n", r.Label, fmt.Sprintf("%#x", r.Checksum), causes)
	}

	var injections, recoveries int64
	names := make([]string, 0, len(first.Counters))
	for name := range first.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Println("\ninjection/recovery counters:")
	for _, name := range names {
		v := first.Counters[name]
		if strings.HasSuffix(name, "/injections") {
			injections += v
		}
		if strings.HasSuffix(name, "/recoveries") {
			recoveries += v
		}
		fmt.Printf("  %-60s %d\n", name, v)
	}
	fmt.Printf("\ntotal: %d injections, %d recoveries\n", injections, recoveries)

	second, err := chaosSweep(seed, quick)
	if err != nil {
		return fmt.Errorf("replay pass: %w", err)
	}
	if !reflect.DeepEqual(first, second) {
		fmt.Fprintln(os.Stderr, "\nchaos: REPLAY DIVERGED — the two passes disagree:")
		diffChaos(os.Stderr, first, second)
		return fmt.Errorf("chaos replay is not deterministic for seed %d", seed)
	}
	fmt.Println("replay: second pass reproduced every checksum, failure cause, and counter")
	return nil
}

// diffChaos prints where two passes disagree.
func diffChaos(w *os.File, a, b *chaosPass) {
	for i := range a.Runs {
		if i >= len(b.Runs) {
			break
		}
		if !reflect.DeepEqual(a.Runs[i], b.Runs[i]) {
			fmt.Fprintf(w, "  run %s: %+v vs %+v\n", a.Runs[i].Label, a.Runs[i], b.Runs[i])
		}
	}
	for name, v := range a.Counters {
		if b.Counters[name] != v {
			fmt.Fprintf(w, "  counter %s: %d vs %d\n", name, v, b.Counters[name])
		}
	}
	for name, v := range b.Counters {
		if _, ok := a.Counters[name]; !ok {
			fmt.Fprintf(w, "  counter %s: absent vs %d\n", name, v)
		}
	}
}
