package mem

import (
	"fmt"
	"testing"
)

// benchMem builds a fully committed memory for hot-path load
// benchmarks: every page is touched up front so the VM strategies
// (mprotect/uffd) measure their steady-state fast path, not fault
// costs.
func benchMem(b *testing.B, s Strategy) *Memory {
	b.Helper()
	cfg := Config{Strategy: s, AS: testAS(), MinPages: 16, MaxPages: 16}
	if s == Uffd {
		cfg.Pool = NewArenaPool()
	}
	m, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { m.Close() })
	m.Fill(0, 0, m.SizeBytes())
	return m
}

// The per-strategy load benchmarks time the checked fast path a
// compiled load closure reduces to (watermark compare + slice read),
// one sub-benchmark per strategy. `make bench-hot` runs them next to
// the elide on/off macro benchmarks so the per-access check cost and
// the whole-kernel win are visible side by side.

func BenchmarkLoadU8PerStrategy(b *testing.B) {
	for _, s := range Strategies() {
		b.Run(s.String(), func(b *testing.B) {
			m := benchMem(b, s)
			mask := m.SizeBytes() - 64
			var sink uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink += uint64(m.LoadU8((uint64(i) * 67) & mask))
			}
			keep(b, sink)
		})
	}
}

func BenchmarkLoadU32PerStrategy(b *testing.B) {
	for _, s := range Strategies() {
		b.Run(s.String(), func(b *testing.B) {
			m := benchMem(b, s)
			mask := m.SizeBytes() - 64
			var sink uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink += uint64(m.LoadU32((uint64(i) * 67) & mask))
			}
			keep(b, sink)
		})
	}
}

func BenchmarkLoadU64PerStrategy(b *testing.B) {
	for _, s := range Strategies() {
		b.Run(s.String(), func(b *testing.B) {
			m := benchMem(b, s)
			mask := m.SizeBytes() - 64
			var sink uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink += m.LoadU64((uint64(i) * 67) & mask)
			}
			keep(b, sink)
		})
	}
}

// BenchmarkLifecyclePerStrategy is the isolate-lifecycle layer
// benchmark: instantiate on a 64 MiB reservation, grow to 2 MiB and
// write one byte per 4 KiB page of it, close. Provisioning and
// teardown must follow the 2 MiB the isolate touched, under every
// strategy; the simulated kernel costs are zeroed (testAS), so ns/op
// is this package's and vmm's own code.
func BenchmarkLifecyclePerStrategy(b *testing.B) {
	const maxPages, growPages = 1024, 31
	for _, s := range Strategies() {
		b.Run(s.String(), func(b *testing.B) {
			cfg := Config{Strategy: s, AS: testAS(), MinPages: 1, MaxPages: maxPages}
			if s == Uffd {
				cfg.Pool = NewArenaPool()
				b.Cleanup(cfg.Pool.Drain)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m, err := New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if m.Grow(growPages) < 0 {
					b.Fatal("grow failed")
				}
				for a := uint64(0); a < m.SizeBytes(); a += 4096 {
					m.StoreU8(a, 1)
				}
				if err := m.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// keep defeats dead-code elimination of the benchmark loop without
// the cost of a package-level sink store per iteration.
func keep(b *testing.B, v uint64) {
	if v == 1<<63 {
		b.Log(fmt.Sprint(v))
	}
}
