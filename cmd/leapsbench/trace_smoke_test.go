package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
)

// TestTraceSmoke drives the built CLI the way a user does (make
// trace-smoke runs it alone): a short traced uffd run must print its
// strategy's attribution row and say how much of the run the timeline
// file holds, and the file must be one JSON document. Presence and
// counts only; no timing is compared.
func TestTraceSmoke(t *testing.T) {
	dir := t.TempDir()
	bin, trace := filepath.Join(dir, "leapsbench"), filepath.Join(dir, "trace.json")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	var stderr bytes.Buffer
	cmd := exec.Command(bin, "-workload", "gemm", "-class", "test", "-engine", "wavm",
		"-strategy", "uffd", "-threads", "4", "-measure", "4", "-trace", trace)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("leapsbench: %v\n%s", err, stderr.Bytes())
	}
	for _, want := range []string{`(?m)^uffd +\d`, `(?m)^timeline: first \d+ of \d+ span events$`} {
		if !regexp.MustCompile(want).Match(out) {
			t.Errorf("output has no line matching %s:\n%s", want, out)
		}
	}
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(data) {
		t.Errorf("%s is not valid JSON", trace)
	}
}
