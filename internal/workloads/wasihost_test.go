package workloads_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"sync"
	"testing"

	"leapsandbounds/internal/compiled"
	"leapsandbounds/internal/core"
	"leapsandbounds/internal/isa"
	"leapsandbounds/internal/mem"
	"leapsandbounds/internal/workloads"
)

// wasiInput names the file each wasi workload's image is preopened as.
var wasiInput = map[string]string{"logscan": "access.log", "kvstore": "db", "echo": "in.bin"}

// image reads spec's input file out of a fresh env: the shared image
// as wasi.NewFS copied it.
func image(tb testing.TB, spec workloads.Spec, c workloads.Class) []byte {
	tb.Helper()
	name, ok := wasiInput[spec.Name]
	if !ok {
		tb.Fatalf("%s: no input file listed for this wasi workload", spec.Name)
	}
	data, ok := spec.NewEnv(c).FS.ReadFile(name)
	if !ok {
		tb.Fatalf("%s: no file %q in a fresh env", spec.Name, name)
	}
	return data
}

// imageHashes hashes every wasi workload's image at both classes.
func imageHashes(t *testing.T) map[string][sha256.Size]byte {
	out := map[string][sha256.Size]byte{}
	for _, spec := range workloads.Suite("wasi") {
		for _, c := range []workloads.Class{workloads.Test, workloads.Bench} {
			out[fmt.Sprintf("%s/class %d", spec.Name, c)] = sha256.Sum256(image(t, spec, c))
		}
	}
	return out
}

// TestWASIImagesStayReadOnly: the file images are built once and
// shared, so nothing that runs a workload may write them — not the
// native twins (kvstore's writes its records) and not a guest on any
// engine × strategy (kvstore's and echo's write their files).
func TestWASIImagesStayReadOnly(t *testing.T) {
	before := imageHashes(t)
	for _, spec := range workloads.Suite("wasi") {
		for _, c := range []workloads.Class{workloads.Test, workloads.Bench} {
			_, native := spec.Build(c)
			native()
		}
		m, native := spec.Build(workloads.Test)
		want := native()
		for _, e := range []struct {
			name string
			eng  core.Engine
		}{{"wasm3", wasm3.New(t)}, {"wasmtime", wasmtime.New(t)}, {"wavm", wavm.New(t)}} {
			cm, err := e.eng.Compile(m)
			if err != nil {
				t.Fatalf("%s on %s: %v", spec.Name, e.name, err)
			}
			for _, s := range mem.Strategies() {
				inst, err := cm.Instantiate(core.Config{Profile: isa.X86_64(), Strategy: s}, spec.NewEnv(workloads.Test).Imports())
				if err != nil {
					t.Fatalf("%s on %s/%v: %v", spec.Name, e.name, s, err)
				}
				res, err := inst.Invoke(workloads.Entry)
				inst.Close()
				if err != nil || len(res) != 1 || res[0] != want {
					t.Errorf("%s on %s/%v: %v %v, want %#x", spec.Name, e.name, s, res, err, want)
				}
			}
		}
	}
	after := imageHashes(t)
	for k, h := range before {
		if after[k] != h {
			t.Errorf("%s: the shared file image changed while the workload ran", k)
		}
	}
}

// TestWASINewEnvConcurrent builds every wasi workload's env from eight
// goroutines at once. Under -race it checks that envs share one image
// safely and, when it runs first in the process, that the image's
// one-time build is safe too.
func TestWASINewEnvConcurrent(t *testing.T) {
	for _, spec := range workloads.Suite("wasi") {
		const workers = 8
		got := make([][]byte, workers)
		var wg sync.WaitGroup
		for w := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[w] = image(t, spec, workloads.Bench)
			}()
		}
		wg.Wait()
		for w := range got {
			if !bytes.Equal(got[w], got[0]) {
				t.Errorf("%s: env %d's file differs from env 0's", spec.Name, w)
			}
		}
	}
}

// BenchmarkHostcallOp times one benchmark hostcall op per wasi
// workload at class Bench — NewEnv, Instantiate, Invoke, Close — on
// wavm under the two host-view paths (trap copies across the boundary,
// mprotect hands the host a live window). B/op is the whole op's
// allocation; compile is outside the loop.
func BenchmarkHostcallOp(b *testing.B) {
	for _, spec := range workloads.Suite("wasi") {
		m, native := spec.Build(workloads.Bench)
		want := native()
		cm, err := compiled.NewWAVM().Compile(m)
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range []mem.Strategy{mem.Trap, mem.Mprotect} {
			cfg := core.Config{Profile: isa.X86_64(), Strategy: s}
			b.Run(fmt.Sprintf("%s/%v", spec.Name, s), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					inst, err := cm.Instantiate(cfg, spec.NewEnv(workloads.Bench).Imports())
					if err != nil {
						b.Fatal(err)
					}
					res, err := inst.Invoke(workloads.Entry)
					inst.Close()
					if err != nil || len(res) != 1 || res[0] != want {
						b.Fatalf("%v %v, want %#x", res, err, want)
					}
				}
			})
		}
	}
}
