// Command benchmark measures the whole chain — wasm bytes to result —
// on four workloads, end to end with tracing off and layer by layer in
// a separate traced run. See README.md.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// epochs is how often one run sets the workload up afresh; setup_s is
// read from the set-ups. Tests shrink it.
var epochs = 15

// outDir receives traces and reports (git-ignored).
var outDir = filepath.Join("benchmark", "out")

// metricValue is one entry of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "steady, coldstart, churn or hostcall; empty runs all four, each in a fresh process")
	seed := flag.Int64("seed", 1, "seeds corpus generation and per-round cell order")
	seconds := flag.Int("seconds", 0, "length of the measured window (default: run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", 0, "1: traced run, reports the per-layer metrics")
	aa := flag.Bool("aa", false, "run the untraced suite as two sets on the same build and compare them against the bounds")
	runs := flag.Int("runs", 10, "with -aa: runs per workload and set, each with its own seed")
	flag.Parse()
	if flag.NArg() > 0 || *trace < 0 || *trace > 1 {
		flag.Usage()
		os.Exit(2)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatal(err)
	}
	if *workload == "" {
		if err := runSuite(*seed, *seconds, *aa, *runs); err != nil {
			fatal(err)
		}
		return
	}
	var def *workloadDef
	for i := range workloadDefs {
		if workloadDefs[i].name == *workload {
			def = &workloadDefs[i]
		}
	}
	if def == nil {
		fatal(fmt.Errorf("unknown workload %q", *workload))
	}
	if *seconds <= 0 {
		spec, err := loadSpec("BENCHMARK.json")
		if err != nil {
			fatal(err)
		}
		*seconds = spec.RunSeconds
	}
	res, err := runWorkload(def, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// runWorkload is one run. The time box is split into epochs: each sets
// the workload up from scratch (a setup_s sample, and a fresh code and
// heap layout, so that one unlucky layout does not decide the run) and
// then measures rounds on it. Samples pool per cell across epochs.
func runWorkload(def *workloadDef, seed int64, box time.Duration, traced bool) (*result, error) {
	ps := procSet{}
	defer ps.close()
	lv := &layerValues{v: map[string]float64{}}
	rn := &runner{rng: rand.New(rand.NewSource(seed))}
	if traced {
		rn.rec = &recorder{}
		if err := runProbes(lv, seed); err != nil {
			return nil, err
		}
	}
	var b *bench
	// setups are the set-ups' raw times, in s, with when each ran.
	var setups []sample
	phaseB := newContended()
	for e := 0; e < epochs; e++ {
		f := host.factor()
		start, t0 := sinceStartMs(), time.Now()
		fresh, err := def.setup(seed, ps)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", def.name, err)
		}
		setups = append(setups, sample{start: start, end: sinceStartMs(), total: time.Since(t0).Seconds()})
		if b == nil {
			b = &bench{cells: fresh.cells, layer: map[string][]float64{}}
			rn.warm(b.cells)
		} else {
			for i, c := range fresh.cells {
				b.cells[i].op, b.cells[i].countOps = c.op, c.countOps
			}
		}
		for k, xs := range fresh.layer {
			for _, x := range xs {
				b.layer[k] = append(b.layer[k], f*x)
			}
		}
		if def.phaseB && traced {
			// Phase A, one client, gives every end-to-end number; phase B
			// only adds the mmap-lock contention rows of a traced run.
			rn.measure(b.cells, box*6/10/time.Duration(epochs))
			phaseB.measure(b.cells, rn.rng, box*4/10/time.Duration(epochs), &rn.tl)
		} else {
			rn.measure(b.cells, box/time.Duration(epochs))
		}
	}

	tl := rn.tl
	res := &result{Correct: tl.failed == 0, Attempted: tl.attempted, Failed: tl.failed, Metrics: map[string]metricValue{}}
	rd := newReader(def.quick)
	printCells(rd, b.cells)
	if tl.failed > 0 {
		fmt.Printf("FAILED %d of %d ops; first: %s\n", tl.failed, tl.attempted, tl.firstErr)
	}
	if !traced {
		su := (&cell{samples: setups}).read(rd, opTimes)
		rows := append([]row{
			{"setup_s", "s", su, su.at(rd.quantile())},
			throughput(rd, b.cells, rn.rounds, rn.gc.ms),
			scalar("peak_rss_mib", "MiB", peakRSSMiB()),
		}, latencyRows(rd, b.cells)...)
		printRows(rows)
		for _, r := range rows {
			res.Metrics[r.name] = metricValue{r.v, r.unit}
		}
		fmt.Println("for information, not gated:")
		printRows(infoRows(rd, b.cells))
		fmt.Printf("collections between ops: %d (%.3g MiB allocated per op)\n", rn.gc.n, float64(allocated())/float64(tl.attempted)/(1<<20))
		return res, nil
	}

	if err := spanLayers(lv, b.cells); err != nil {
		return nil, err
	}
	if def.phaseB {
		churnLayers(lv, rd, b.cells, rn.win, phaseB)
	}
	for k, xs := range b.layer {
		lv.set(k, median(xs))
	}
	fmt.Printf("%-36s %-6s %12s\n", "layer metric", "unit", "value")
	for _, d := range layerDefs {
		fmt.Printf("%-36s %-6s %12.6g\n", d.Name, d.Unit, lv.v[d.Name])
		res.Metrics[d.Name] = metricValue{lv.v[d.Name], d.Unit}
	}
	for _, u := range lv.uneven {
		fmt.Println("NON-DETERMINISTIC", u)
	}
	if err := writeTrace(filepath.Join(outDir, def.name+".trace.json"), rn.rec); err != nil {
		return nil, err
	}
	return res, nil
}

func fmtTail(d dist) string {
	if d.TailPct == 0 {
		return "-"
	}
	return fmt.Sprintf("p%g=%.4g", d.TailPct, d.Tail)
}

// printCells reports each cell in its own row (untraced op time).
func printCells(rd reader, cells []*cell) {
	fmt.Printf("%-36s %6s %12s %12s %12s  %s\n", "cell (op, ms)", "n", "median", "q1", "q3", "tail")
	for _, c := range cells {
		d := c.read(rd, opTimes)
		fmt.Printf("%-36s %6d %12.5g %12.5g %12.5g  %s\n", c.name, d.N, d.Median, d.Q1, d.Q3, fmtTail(d))
	}
}

func printRows(rows []row) {
	fmt.Printf("%-36s %-6s %6s %12s %12s %12s %12s  %s\n", "metric", "unit", "n", "value", "median", "q1", "q3", "tail")
	for _, r := range rows {
		fmt.Printf("%-36s %-6s %6d %12.6g %12.6g %12.6g %12.6g  %s\n", r.name, r.unit, r.d.N, r.v, r.d.Median, r.d.Q1, r.d.Q3, fmtTail(r.d))
	}
}

// peakRSSMiB reads VmHWM, the process's high-water resident set.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}
