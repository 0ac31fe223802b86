package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// benchSpec is BENCHMARK.json.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("run from the repository root: %w", err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &spec, nil
}

// runChild runs one workload in a fresh process of this binary and
// returns its result line, with the run's median host factor (an
// untraced run prints it as a row) under the name host_factor.
func runChild(workload string, seed int64, seconds, trace int, show bool) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace))
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	runErr := cmd.Run()
	if show {
		os.Stdout.Write(out.Bytes())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: no result line (%v)", workload, seed, runErr)
	}
	if runErr != nil || !res.Correct {
		return &res, fmt.Errorf("%s seed %d: %d of %d ops failed (%v)", workload, seed, res.Failed, res.Attempted, runErr)
	}
	for _, l := range lines {
		if f := strings.Fields(l); len(f) > 3 && f[0] == "host_factor" {
			v, _ := strconv.ParseFloat(f[3], 64)
			res.Metrics["host_factor"] = metricValue{v, f[1]}
		}
	}
	return &res, nil
}

// hostRecord records where an A/A comparison was taken.
type hostRecord struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitSHA     string `json:"git_sha"`
	Seed       int64  `json:"seed"`
	Runs       int    `json:"runs"`
	RunSeconds int    `json:"run_seconds"`
}

func hostInfo(seed int64, runs, seconds int) hostRecord {
	sha := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		sha = strings.TrimSpace(string(out))
	}
	return hostRecord{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), sha, seed, runs, seconds}
}

// aaRow compares one metric on one workload between the two sets.
type aaRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	MedianA  float64 `json:"median_a"`
	MedianB  float64 `json:"median_b"`
	SpreadA  float64 `json:"spread_a"` // interquartile distance ÷ median
	SpreadB  float64 `json:"spread_b"`
	Worse    float64 `json:"worse"` // how much worse B's median is than A's, as a share of A's
	Bound    float64 `json:"bound"`
	OK       bool    `json:"ok"`
	// RunsA and RunsB are every run's value, in seed order.
	RunsA []float64 `json:"runs_a"`
	RunsB []float64 `json:"runs_b"`
}

// runSuite runs every workload, each run in a fresh process. Plain: one
// untraced and one traced run per workload. A/A: two sets of runs of
// the untraced suite on the same build, seeds seed, seed+1, …; it fails
// if any end-to-end metric's spread, or the difference between the two
// sets' medians, exceeds the metric's bound.
func runSuite(seed int64, seconds int, aa bool, runs int) error {
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	if seconds <= 0 {
		seconds = spec.RunSeconds
	}
	if !aa {
		for _, w := range spec.Workloads {
			for trace := 0; trace <= 1; trace++ {
				fmt.Printf("== %s (trace %d) ==\n", w.Name, trace)
				if _, err := runChild(w.Name, seed, seconds, trace, true); err != nil {
					return err
				}
			}
		}
		return nil
	}

	// values[set][workload][metric] are the per-run values.
	var values [2]map[string]map[string][]float64
	for set := range values {
		values[set] = map[string]map[string][]float64{}
		for _, w := range spec.Workloads {
			values[set][w.Name] = map[string][]float64{}
			for i := 0; i < runs; i++ {
				res, err := runChild(w.Name, seed+int64(i), seconds, 0, false)
				if err != nil {
					return err
				}
				for name, mv := range res.Metrics {
					values[set][w.Name][name] = append(values[set][w.Name][name], mv.Value)
				}
				fmt.Fprintf(os.Stderr, "set %d %s run %d/%d done\n", set+1, w.Name, i+1, runs)
			}
		}
	}
	var rows []aaRow
	failed := 0
	fmt.Printf("%-10s %-18s %-5s %12s %12s %8s %8s %8s %6s\n", "workload", "metric", "unit", "median A", "median B", "iqr A", "iqr B", "worse", "bound")
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			r := aaRow{Workload: w.Name, Metric: m.Name, Unit: m.Unit, Bound: m.Bound,
				RunsA: values[0][w.Name][m.Name], RunsB: values[1][w.Name][m.Name]}
			r.MedianA, r.SpreadA = spread(r.RunsA)
			r.MedianB, r.SpreadB = spread(r.RunsB)
			r.Worse = (r.MedianB - r.MedianA) / r.MedianA
			if m.Better == "higher" {
				r.Worse = -r.Worse
			}
			// setup_s is held to its median only, as the gate does.
			r.OK = r.Worse <= m.Bound && (m.Name == "setup_s" || (r.SpreadA <= m.Bound && r.SpreadB <= m.Bound))
			mark := ""
			if !r.OK {
				mark = "  EXCEEDS"
				failed++
			}
			fmt.Printf("%-10s %-18s %-5s %12.6g %12.6g %7.2f%% %7.2f%% %+7.2f%% %5.0f%%%s\n",
				r.Workload, r.Metric, r.Unit, r.MedianA, r.MedianB, 100*r.SpreadA, 100*r.SpreadB, 100*r.Worse, 100*r.Bound, mark)
			rows = append(rows, r)
		}
		// Not gated: how fast the host was, so that a shift can be read
		// against it.
		hf := aaRow{Workload: w.Name, Metric: "host_factor", Unit: "ratio", OK: true,
			RunsA: values[0][w.Name]["host_factor"], RunsB: values[1][w.Name]["host_factor"]}
		hf.MedianA, hf.SpreadA = spread(hf.RunsA)
		hf.MedianB, hf.SpreadB = spread(hf.RunsB)
		hf.Worse = (hf.MedianA - hf.MedianB) / hf.MedianA
		fmt.Printf("%-10s %-18s %-5s %12.6g %12.6g %7.2f%% %7.2f%% %+7.2f%%\n",
			hf.Workload, hf.Metric, hf.Unit, hf.MedianA, hf.MedianB, 100*hf.SpreadA, 100*hf.SpreadB, 100*hf.Worse)
		rows = append(rows, hf)
	}
	report, err := json.MarshalIndent(struct {
		Host hostRecord `json:"host"`
		Rows []aaRow    `json:"rows"`
	}{hostInfo(seed, runs, seconds), rows}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(outDir, "aa.json"), report, 0o644); err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("A/A: %d metric × workload pairs exceed their bound", failed)
	}
	return nil
}
