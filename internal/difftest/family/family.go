// Package family holds the programs the differential tests draw from:
// random kernels in and across the bounds of memory, with linear
// indexes that elision versions, stale local copies the optimizer must
// not forward, the out-of-bounds edge programs, and the WASI iovec
// scenarios of the host boundary.
package family

import (
	"bytes"
	"testing"

	"leapsandbounds/internal/difftest"
	"leapsandbounds/internal/wasm"
)

// A Family is a seeded program generator and the rule its programs
// keep across strategies.
type Family struct {
	Name  string
	Rule  difftest.Rule
	Build func(seed int64) (*wasm.Module, error)
}

// Programs are the in-bounds random kernels, their boundary-straddling
// OOB variants, both again with linear indexes in loops, which elision
// versions, and the stale local copies of copies.
var Programs = []Family{
	{"random", difftest.Same, func(seed int64) (*wasm.Module, error) { return Program(seed, false, false) }},
	{"oob", difftest.Partition, func(seed int64) (*wasm.Module, error) { return Program(seed, true, false) }},
	{"linear", difftest.Same, func(seed int64) (*wasm.Module, error) { return Program(seed, false, true) }},
	{"linear-oob", difftest.Partition, func(seed int64) (*wasm.Module, error) { return Program(seed, true, true) }},
	{"copies", difftest.Same, copies},
}

// An Edge is a program that accesses memory across its last byte, and
// whether trap traps on it ("yes" or "no"; "" when the program does not
// fix it). Its strategies keep Partition.
type Edge struct {
	Name  string
	Build func() (*wasm.Module, error)
	Traps string
}

// Edges put accesses on the last byte of memory: a folded address
// chain, a loop behind elision's range check, past the end and ending
// exactly on it, straight-line checked loads, and one checked load and
// one checked store of each width ending one byte past the end. A check
// one byte or one iteration short makes wavm miss the trap the others
// take.
var Edges = []Edge{
	{"fold", foldOOB, ""},
	{"edge-loop", func() (*wasm.Module, error) { return edgeLoop(1) }, "yes"},
	{"edge-loop-inbounds", func() (*wasm.Module, error) { return edgeLoop(0) }, "no"},
	{"edge-group", edgeGroup, "yes"},
	{"edge-load8", func() (*wasm.Module, error) { return edgeWidth(1, false) }, "yes"},
	{"edge-load16", func() (*wasm.Module, error) { return edgeWidth(2, false) }, "yes"},
	{"edge-load32", func() (*wasm.Module, error) { return edgeWidth(4, false) }, "yes"},
	{"edge-load64", func() (*wasm.Module, error) { return edgeWidth(8, false) }, "yes"},
	{"edge-store8", func() (*wasm.Module, error) { return edgeWidth(1, true) }, "yes"},
	{"edge-store16", func() (*wasm.Module, error) { return edgeWidth(2, true) }, "yes"},
	{"edge-store32", func() (*wasm.Module, error) { return edgeWidth(4, true) }, "yes"},
	{"edge-store64", func() (*wasm.Module, error) { return edgeWidth(8, true) }, "yes"},
}

// Fuzz drives Check from the fuzzer. Its first input picks the family:
// Programs in order (random, oob, linear, linear-oob, copies), built
// from seed and run on programs; or, past them, a host iovec scenario
// derived from data (hostFromBytes) and run on host, where Check holds
// the strategies to one another and Host.ReadBack holds what fd_read
// delivered, on host's first engine, to the file. A nil engine set
// leaves its families out, seed inputs included. The seed inputs are
// four seeds of random and oob, LatchSeeds and four seeds of linear and
// linear-oob, four of copies, then five host scenarios.
func Fuzz(f *testing.F, programs, host []difftest.Engine) {
	const random, oob, linear, linearOOB, copies, hostFam = 0, 1, 2, 3, 4, 5
	if programs != nil {
		for seed := int64(1); seed <= 4; seed++ {
			f.Add(uint8(random), seed, []byte(nil))
			f.Add(uint8(oob), seed, []byte(nil))
		}
		for _, seeds := range [][]int64{LatchSeeds, {1, 2, 3, 4}} {
			for _, seed := range seeds {
				f.Add(uint8(linear), seed, []byte(nil))
				f.Add(uint8(linearOOB), seed, []byte(nil))
			}
		}
		for seed := int64(1); seed <= 4; seed++ {
			f.Add(uint8(copies), seed, []byte(nil))
		}
	}
	if host != nil {
		f.Add(uint8(hostFam), int64(0), []byte{1, 2, 3, 4, 5, 6, 7, 8})
		f.Add(uint8(hostFam), int64(0), []byte{0xff, 0xff, 0x80, 0x00, 0x10})
		f.Add(uint8(hostFam), int64(0), []byte{0x00})
		f.Add(uint8(hostFam), int64(0), []byte{0xfe, 0x01, 0xff, 0xfe, 0x40, 0x00, 0x7f, 0x30, 0x21})
		// One iovec of 40 bytes at 353, inside the pattern the module
		// seeds, so the file holds non-zero bytes for ReadBack to see.
		f.Add(uint8(hostFam), int64(0), []byte{0, 0, 1, 96, 40, 1})
	}
	f.Fuzz(func(t *testing.T, fam uint8, seed int64, data []byte) {
		k := int(fam) % (len(Programs) + 1)
		switch {
		case host == nil:
			k = int(fam) % len(Programs)
		case programs == nil:
			k = len(Programs)
		}
		if k == len(Programs) {
			h := hostFromBytes(data)
			r, err := h.Row(host)
			if err != nil {
				t.Skip() // a generator rejects some degenerate inputs
			}
			difftest.Check(t, r)
			if got, want := h.ReadBack(t, host[0]); !bytes.Equal(got, want) {
				t.Errorf("fd_read left %x in guest memory, the file holds %x", got, want)
			}
			return
		}
		r := difftest.Row{Engines: programs, Rule: Programs[k].Rule}
		var err error
		if r.Module, err = Programs[k].Build(seed); err != nil {
			t.Skip() // as above
		}
		difftest.Check(t, r)
	})
}
