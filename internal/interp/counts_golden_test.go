package interp_test

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"leapsandbounds/internal/core"
	"leapsandbounds/internal/interp"
	"leapsandbounds/internal/isa"
	"leapsandbounds/internal/workloads"
)

// TestInterpCountsGolden holds the interpreter's cycle accounting to
// the counts it produces: one CountCycles run of every registered
// workload at class Test, under wasm3 and under the configurable
// interpreter with each strategy, must give exactly the isa.Counts in
// testdata/counts.golden, every class. Figure 2's simulated ratios and
// the -ops histograms are computed from these counts, so a change to
// the run loop that is meant to change nothing leaves this file as it
// is; a change that means to alter them replaces it with what the
// failure prints, and says why.
func TestInterpCountsGolden(t *testing.T) {
	configs := interpConfigs()
	var got strings.Builder
	for _, spec := range workloads.All() {
		m, _ := spec.Build(workloads.Test)
		for _, c := range configs {
			cm, err := c.eng.Compile(m)
			if err != nil {
				t.Fatalf("%s %s: %v", spec.Name, c.name, err)
			}
			var imports core.Imports
			if spec.NewEnv != nil {
				imports = spec.NewEnv(workloads.Test).Imports()
			}
			cfg := core.Config{Profile: isa.X86_64(), Strategy: c.strategy, CountCycles: true}
			inst, err := cm.Instantiate(cfg, imports)
			if err != nil {
				t.Fatalf("%s %s: %v", spec.Name, c.name, err)
			}
			if _, err := inst.Invoke(workloads.Entry); err != nil {
				t.Fatalf("%s %s: %v", spec.Name, c.name, err)
			}
			counts := inst.Counts()
			fmt.Fprintf(&got, "%s %s", spec.Name, c.name)
			for class := isa.OpClass(0); class < isa.NumClasses; class++ {
				fmt.Fprintf(&got, " %s=%d", class, counts[class])
			}
			got.WriteByte('\n')
			inst.Close()
		}
	}
	want, err := os.ReadFile("testdata/counts.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("interpreter counts differ from testdata/counts.golden; for a change meant to alter them, the file is now:\n%s", got.String())
	}
}

// TestCountedInstancesAtOnce instantiates counting instances of one
// compiled module from several goroutines at once, so the first use
// of its instrumented streams races (under -race) with the others;
// every instance must count the same.
func TestCountedInstancesAtOnce(t *testing.T) {
	spec, err := workloads.ByName("atax")
	if err != nil {
		t.Fatal(err)
	}
	m, _ := spec.Build(workloads.Test)
	eng := interp.NewWasm3()
	eng.SetCache(nil)
	cm, err := eng.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]isa.Counts, 4)
	var wg sync.WaitGroup
	for i := range counts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			inst, err := cm.Instantiate(core.Config{Profile: isa.X86_64(), CountCycles: true}, nil)
			if err != nil {
				t.Error(err)
				return
			}
			defer inst.Close()
			if _, err := inst.Invoke(workloads.Entry); err != nil {
				t.Error(err)
				return
			}
			counts[i] = *inst.Counts()
		}()
	}
	wg.Wait()
	for i := range counts {
		if counts[i] != counts[0] || counts[i][isa.ClassDispatch] == 0 {
			t.Errorf("instance %d counted %v, instance 0 %v", i, counts[i], counts[0])
		}
	}
}
