package figures_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"leapsandbounds/internal/figures"
	"leapsandbounds/internal/obs"
	"leapsandbounds/internal/workloads"
)

func quickCfg(out *bytes.Buffer) *figures.Config {
	return &figures.Config{
		Out:        out,
		Class:      workloads.Test,
		Quick:      true,
		Measure:    2,
		Warmup:     1,
		MaxThreads: 2,
	}
}

func TestFig1(t *testing.T) {
	var out bytes.Buffer
	if err := figures.Fig1(quickCfg(&out)); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"Figure 1", "gemm", "mprotect", "ratio"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestFig2(t *testing.T) {
	if testing.Short() {
		t.Skip("full engine matrix")
	}
	var out bytes.Buffer
	if err := figures.Fig2(quickCfg(&out)); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	// All three ISA panels present.
	for _, want := range []string{"x86_64", "aarch64", "riscv64", "wavm", "wasm3", "sim ratio"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q", want)
		}
	}
	// The RISC-V panel must not list the engines the paper could not
	// run there.
	rv := s[strings.Index(s, "riscv64"):]
	if strings.Contains(rv, "wavm") || strings.Contains(rv, "wasmtime") {
		t.Error("riscv64 panel lists engines without RISC-V backends")
	}
}

func TestFig3Through5ShareScalingMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling matrix")
	}
	var out bytes.Buffer
	cfg := quickCfg(&out)
	cfg.Metrics = obs.NewRegistry()
	if err := figures.Fig3(cfg); err != nil {
		t.Fatal(err)
	}
	if err := figures.Fig4(cfg); err != nil {
		t.Fatal(err)
	}
	if err := figures.Fig5(cfg); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"Figure 3", "Figure 4", "Figure 5", "lockwait@max", "uffd", "mprotect"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q", want)
		}
	}
	// The three figures are views of one matrix: every cell was
	// measured exactly once, so its scope counts one run's iterations.
	cells := 0
	for name, n := range cfg.Metrics.Snapshot(false).Counters {
		if !strings.HasPrefix(name, "run[") || !strings.HasSuffix(name, "]/iterations") {
			continue
		}
		cells++
		var threads int64
		if _, err := fmt.Sscanf(name[strings.Index(name, "threads="):], "threads=%d", &threads); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := int64(cfg.Measure) * threads; n != want {
			t.Errorf("%s = %d, want %d (Measure × Threads): the cell was not measured exactly once", name, n, want)
		}
	}
	// 3 engines × 4 strategies × 2 thread counts × 2 workloads × 2 suites.
	if cells != 96 {
		t.Errorf("%d cells measured, want 96", cells)
	}
}

func TestFig6(t *testing.T) {
	if testing.Short() {
		t.Skip("memory matrix")
	}
	var out bytes.Buffer
	if err := figures.Fig6(quickCfg(&out)); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "x86_64") || !strings.Contains(s, "aarch64") {
		t.Errorf("missing ISA panels:\n%s", s)
	}
	if !strings.Contains(s, "THP") {
		t.Error("missing THP column")
	}
}

func TestReplication(t *testing.T) {
	if testing.Short() {
		t.Skip("replication matrix")
	}
	var out bytes.Buffer
	if err := figures.Replication(quickCfg(&out)); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"wasm3 vs v8", "SPEC", "within 10%"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}
