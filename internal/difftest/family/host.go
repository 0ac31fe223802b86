package family

import (
	"bytes"
	"testing"

	"leapsandbounds/internal/core"
	"leapsandbounds/internal/difftest"
	"leapsandbounds/internal/isa"
	"leapsandbounds/internal/mem"
	"leapsandbounds/internal/wasi"
	"leapsandbounds/internal/wasm"
	g "leapsandbounds/internal/wasmgen"
)

// An Iov is one guest iovec entry baked into a generated module.
type Iov struct{ Ptr, Len uint32 }

// A Host is one host-boundary scenario: a set of iovecs, the iovec
// array pointer actually passed to fd_write/fd_read (possibly
// out-of-bounds), and whether the environment grows memory
// mid-hostcall through the MidHostcall hook.
type Host struct {
	Name string
	// Iovs are written into guest memory at diffIovsBase.
	Iovs []Iov
	// IovsPtr is the array pointer the guest passes; usually
	// diffIovsBase, out-of-bounds for the trap scenarios.
	IovsPtr uint32
	// IovCount is the entry count passed (may exceed len(Iovs) to
	// make the array range overrun memory).
	IovCount uint32
	// Grow names the hostcall that grows memory by one page after its
	// guest-memory slices are taken and before they are used: 1 is
	// fd_write, whose slices are read, 2 is fd_read, whose slices are
	// written; 0 grows nothing.
	Grow int
}

const (
	diffFDAddr   = 8   // opened fd
	diffPathAddr = 16  // file name bytes
	diffResAddr  = 40  // nwritten / nread / seek results
	diffIovsBase = 96  // in-bounds iovec array
	diffReadBuf  = 512 // read-back buffer
	diffReadLen  = 256
)

const pageSize = 65536

// HostCases pin the host-boundary semantics: in-bounds gathers, data
// buffers clamped by the memory size (partial counts, no trap),
// out-of-bounds iovec arrays (uniform trap kind and faulting range),
// and a memory.grow landing mid-hostcall while the host holds slices
// of guest memory.
var HostCases = []Host{
	{
		Name:     "in-bounds",
		Iovs:     []Iov{{diffIovsBase + 256, 24}, {diffIovsBase + 288, 9}},
		IovsPtr:  diffIovsBase,
		IovCount: 2,
	},
	{
		Name: "data-buffer-straddles-end",
		// Second entry starts in bounds and overruns the page:
		// clamped to the memory size, partial count, no trap.
		Iovs:     []Iov{{diffIovsBase + 256, 16}, {pageSize - 7, 64}},
		IovsPtr:  diffIovsBase,
		IovCount: 2,
	},
	{
		Name:     "data-buffer-fully-oob",
		Iovs:     []Iov{{pageSize + 100, 32}, {diffIovsBase + 256, 8}},
		IovsPtr:  diffIovsBase,
		IovCount: 2,
	},
	{
		Name: "iovec-array-oob",
		// The array itself is outside memory: the bulk check on
		// the array's range check must trap under every strategy.
		IovsPtr:  pageSize - 4,
		IovCount: 2,
	},
	{
		Name:     "iovec-array-far-oob",
		IovsPtr:  0x7fffff00,
		IovCount: 4,
	},
	{
		Name:     "grow-mid-hostcall",
		Iovs:     []Iov{{diffIovsBase + 256, 24}, {diffIovsBase + 288, 9}},
		IovsPtr:  diffIovsBase,
		IovCount: 2,
		Grow:     1,
	},
	{
		Name: "grow-mid-read",
		// The grow lands between fd_read's planning and its writes:
		// the slices, taken before the grow, must still be guest
		// memory after it.
		Iovs:     []Iov{{diffIovsBase + 256, 24}, {diffIovsBase + 288, 9}},
		IovsPtr:  diffIovsBase,
		IovCount: 2,
		Grow:     2,
	},
	{
		Name: "grow-with-clamped-buffer",
		// The buffer clamps against the pre-grow size; the grow
		// lands after planning, so the partial count must not
		// change (the clamp is part of the call's semantics).
		Iovs:     []Iov{{pageSize - 12, 40}},
		IovsPtr:  diffIovsBase,
		IovCount: 1,
		Grow:     1,
	},
}

// hostFromBytes derives an iovec layout and grow point from fuzz
// input.
func hostFromBytes(seed []byte) Host {
	at := 0
	next := func() uint32 {
		if at >= len(seed) {
			return 0
		}
		b := seed[at]
		at++
		return uint32(b)
	}
	h := Host{IovsPtr: diffIovsBase, Grow: int(next() % 3)}
	n := int(next()%3) + 1
	for i := 0; i < n; i++ {
		// Spread pointers across the page, including the last
		// bytes so clamping paths get exercised.
		ptr := (next()*257 + next()) % (pageSize + 512)
		length := next() % 300
		h.Iovs = append(h.Iovs, Iov{Ptr: ptr, Len: length})
	}
	h.IovCount = uint32(len(h.Iovs))
	if next()&7 == 0 {
		// Occasionally pass an out-of-bounds array pointer.
		h.IovsPtr = pageSize - next()%32
		h.Iovs = nil
	}
	return h
}

// Row is h's row over engines, which every strategy runs alike: each
// instance gets a fresh in-memory file system, and the file the guest
// wrote is part of the outcome.
func (h Host) Row(engines []difftest.Engine) (difftest.Row, error) {
	m, err := h.module()
	return difftest.Row{Module: m, Env: h.env, Engines: engines, Rule: difftest.Same}, err
}

// ReadBack runs h's module once on e under the trap strategy and
// returns what fd_read left in the guest's read-back buffer and the
// file it read from, both cut to the bytes the read delivered; they
// must be equal. Check holds the strategies to one another, so a read
// that misses guest memory under all five alike passes it: this holds
// fd_read to the file.
func (h Host) ReadBack(tb testing.TB, e difftest.Engine) (got, want []byte) {
	tb.Helper()
	m, err := h.module()
	if err != nil {
		tb.Fatalf("scenario module invalid: %v", err)
	}
	eng := e.New(tb)
	eng.SetCache(nil)
	cm, err := eng.Compile(m)
	if err != nil {
		tb.Fatalf("%s: compile: %v", e.Name, err)
	}
	env := h.env()
	inst, err := cm.Instantiate(core.Config{Profile: isa.X86_64(), Strategy: mem.Trap}, env.Imports)
	if err != nil {
		tb.Fatalf("%s: instantiate: %v", e.Name, err)
	}
	defer inst.Close()
	difftest.Run(tb, inst, e.Name+"/trap/read-back", difftest.Call{Export: "run"})
	want = env.File()
	want = want[:min(len(want), diffReadLen)]
	return bytes.Clone(inst.Memory().Bytes(diffReadBuf, uint64(len(want)), false)), want
}

// env is one instance's WASI environment. With Grow it grows memory
// by one page inside that hostcall, while the host holds its slices
// of guest memory.
func (h Host) env() difftest.Env {
	env := wasi.NewEnv(nil, nil).WithFS(map[string][]byte{})
	calls := 0
	env.MidHostcall = func(hc *core.HostContext) {
		if calls++; calls == h.Grow {
			hc.Mem.Grow(1)
		}
	}
	return difftest.Env{Imports: env.Imports(), File: func() []byte {
		data, _ := env.FS.ReadFile("f")
		return data
	}}
}

// module generates the scenario module: open "f", gather-write
// the iovecs to it, seek back, read the file into an in-bounds buffer
// (so the file content lands in guest memory and the memory hash pins
// it), folding every errno and count into an i64 digest.
func (h Host) module() (*wasm.Module, error) {
	mb := g.NewModule()
	pathOpen := mb.ImportFunc("wasi_snapshot_preview1", "path_open",
		[]wasm.ValueType{wasm.I32, wasm.I32, wasm.I32, wasm.I32, wasm.I32, wasm.I64, wasm.I64, wasm.I32, wasm.I32},
		[]wasm.ValueType{wasm.I32})
	fdWrite := mb.ImportFunc("wasi_snapshot_preview1", "fd_write",
		[]wasm.ValueType{wasm.I32, wasm.I32, wasm.I32, wasm.I32}, []wasm.ValueType{wasm.I32})
	fdRead := mb.ImportFunc("wasi_snapshot_preview1", "fd_read",
		[]wasm.ValueType{wasm.I32, wasm.I32, wasm.I32, wasm.I32}, []wasm.ValueType{wasm.I32})
	fdSeek := mb.ImportFunc("wasi_snapshot_preview1", "fd_seek",
		[]wasm.ValueType{wasm.I32, wasm.I64, wasm.I32, wasm.I32}, []wasm.ValueType{wasm.I32})
	mb.Memory(1, 4)
	mb.Data(diffPathAddr, []byte("f"))

	f := mb.Func("run", wasm.I64)
	fd := f.LocalI32("fd")
	d := f.LocalI64("d")
	var body []g.Stmt
	// Seed a recognizable pattern so written bytes are non-zero even
	// when an iovec points at untouched memory.
	for i := 0; i < 64; i += 4 {
		body = append(body, g.StoreI32(g.U32(uint32(diffIovsBase+256+i)), 0,
			g.I32(int32(0x01010101*(i/4+1)))))
	}
	for i, iov := range h.Iovs {
		body = append(body,
			g.StoreI32(g.U32(uint32(diffIovsBase+8*i)), 0, g.I32(int32(iov.Ptr))),
			g.StoreI32(g.U32(uint32(diffIovsBase+8*i+4)), 0, g.I32(int32(iov.Len))),
		)
	}
	fold := func(e g.Expr) g.Stmt {
		return g.Set(d, g.Add(g.Mul(g.Get(d), g.I64(1000003)), e))
	}
	body = append(body,
		// open "f" with O_CREAT.
		fold(g.I64FromI32U(g.Call(pathOpen,
			g.I32(3), g.I32(0), g.U32(diffPathAddr), g.I32(1),
			g.I32(1), g.I64(0), g.I64(0), g.I32(0), g.U32(diffFDAddr)))),
		g.Set(fd, g.LoadI32(g.U32(diffFDAddr), 0)),
		// gather-write the iovecs.
		fold(g.I64FromI32U(g.Call(fdWrite,
			g.Get(fd), g.U32(h.IovsPtr), g.U32(h.IovCount), g.U32(diffResAddr)))),
		fold(g.I64FromI32U(g.LoadI32(g.U32(diffResAddr), 0))), // nwritten
		// rewind and read the file back into guest memory.
		fold(g.I64FromI32U(g.Call(fdSeek,
			g.Get(fd), g.I64(0), g.I32(0), g.U32(diffResAddr)))),
		g.StoreI32(g.U32(diffIovsBase), 0, g.U32(diffReadBuf)),
		g.StoreI32(g.U32(diffIovsBase+4), 0, g.U32(diffReadLen)),
		fold(g.I64FromI32U(g.Call(fdRead,
			g.Get(fd), g.U32(diffIovsBase), g.I32(1), g.U32(diffResAddr)))),
		fold(g.I64FromI32U(g.LoadI32(g.U32(diffResAddr), 0))), // nread
		g.Return(g.Get(d)),
	)
	f.Body(body...)
	mb.Export("run", f)
	return mb.Module()
}
