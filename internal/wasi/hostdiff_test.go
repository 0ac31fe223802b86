package wasi_test

import (
	"bytes"
	"testing"
	"time"

	"leapsandbounds/internal/compiled"
	"leapsandbounds/internal/core"
	"leapsandbounds/internal/difftest"
	"leapsandbounds/internal/difftest/family"
	"leapsandbounds/internal/interp"
	"leapsandbounds/internal/isa"
	"leapsandbounds/internal/mem"
	"leapsandbounds/internal/tiered"
	"leapsandbounds/internal/trap"
	"leapsandbounds/internal/wasi"
	"leapsandbounds/internal/wasm"
	g "leapsandbounds/internal/wasmgen"
)

// hostEngines are every engine: the compiled pipelines, the
// interpreter under every strategy and pinned to trap (wasm3), and the
// tiered engine.
var hostEngines = []difftest.Engine{
	{Name: "wavm", New: func(testing.TB) core.Engine { return compiled.NewWAVM() }},
	{Name: "wasmtime", New: func(testing.TB) core.Engine { return compiled.NewWasmtime() }},
	{Name: "wasm3", New: func(testing.TB) core.Engine { return interp.NewWasm3() }},
	{Name: "interp", New: func(testing.TB) core.Engine { return interp.NewConfigurable() }},
	{Name: "v8", New: func(tb testing.TB) core.Engine {
		e := tiered.New()
		tb.Cleanup(e.Close)
		return e
	}},
}

// TestDifferentialHostcall pins the host-boundary semantics
// (family.HostCases) across all five bounds strategies and every
// engine: the digest of every errno and count, the exact trap cause
// when a range check fails, the final guest memory and the file the
// host kept. It also holds fd_read to the file on one cell, since a
// read that misses guest memory under every strategy alike keeps the
// strategies equal.
func TestDifferentialHostcall(t *testing.T) {
	for _, h := range family.HostCases {
		t.Run(h.Name, func(t *testing.T) {
			t.Parallel()
			row, err := h.Row(hostEngines)
			if err != nil {
				t.Fatalf("scenario module invalid: %v", err)
			}
			difftest.Check(t, row)
			if got, want := h.ReadBack(t, hostEngines[0]); !bytes.Equal(got, want) {
				t.Errorf("fd_read left %x in guest memory, the file holds %x", got, want)
			}
		})
	}
}

// TestDifferentialResultPointers holds the scalar result pointers of
// clock_time_get, {args,environ}_sizes_get and {args,environ}_get to
// one outcome across strategies and engines: a pointer past the end of
// memory, or one whose range straddles it, traps out of bounds under
// all five strategies, and the memory image holds what the call wrote
// before the trap. A scalar store there would clamp-redirect under
// clamp and write past the wasm size under none.
func TestDifferentialResultPointers(t *testing.T) {
	const page = 65536
	i32, i64 := wasm.I32, wasm.I64
	rows := []struct {
		name   string
		fn     string
		params []wasm.ValueType
		args   []g.Expr
	}{
		// clock_time_get(realtime, precision, resultPtr): 8 bytes.
		{"clock_time_get/oob", "clock_time_get", []wasm.ValueType{i32, i64, i32}, []g.Expr{g.I32(0), g.I64(0), g.U32(page + 16)}},
		{"clock_time_get/straddle", "clock_time_get", []wasm.ValueType{i32, i64, i32}, []g.Expr{g.I32(0), g.I64(0), g.U32(page - 4)}},
		// *_sizes_get(countPtr, bufSizePtr): the count lands, the
		// buffer size's pointer is the bad one.
		{"args_sizes_get/oob", "args_sizes_get", []wasm.ValueType{i32, i32}, []g.Expr{g.U32(64), g.U32(page + 16)}},
		{"args_sizes_get/straddle", "args_sizes_get", []wasm.ValueType{i32, i32}, []g.Expr{g.U32(64), g.U32(page - 2)}},
		{"environ_sizes_get/oob", "environ_sizes_get", []wasm.ValueType{i32, i32}, []g.Expr{g.U32(64), g.U32(page + 16)}},
		{"environ_sizes_get/straddle", "environ_sizes_get", []wasm.ValueType{i32, i32}, []g.Expr{g.U32(64), g.U32(page - 2)}},
		// *_get(ptrsPtr, bufPtr): the pointer array is the bad one;
		// straddling, its first entry fits and its last does not.
		{"args_get/oob", "args_get", []wasm.ValueType{i32, i32}, []g.Expr{g.U32(page + 16), g.U32(128)}},
		{"args_get/straddle", "args_get", []wasm.ValueType{i32, i32}, []g.Expr{g.U32(page - 4), g.U32(128)}},
		{"environ_get/oob", "environ_get", []wasm.ValueType{i32, i32}, []g.Expr{g.U32(page + 16), g.U32(128)}},
		{"environ_get/straddle", "environ_get", []wasm.ValueType{i32, i32}, []g.Expr{g.U32(page - 2), g.U32(128)}},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			t.Parallel()
			mb := g.NewModule()
			fn := mb.ImportFunc("wasi_snapshot_preview1", r.fn, r.params, []wasm.ValueType{i32})
			mb.Memory(1, 4)
			f := mb.Func("run", wasm.I64)
			f.Body(g.Return(g.I64FromI32U(g.Call(fn, r.args...))))
			mb.Export("run", f)
			m, err := mb.Module()
			if err != nil {
				t.Fatal(err)
			}
			env := func() difftest.Env {
				env := wasi.NewEnv(nil, nil)
				env.Args = []string{"prog", "x"}
				env.Environ = []string{"K=V"}
				fixed := time.Unix(1_700_000_000, 42)
				env.Now = func() time.Time { return fixed }
				return difftest.Env{Imports: env.Imports()}
			}
			o := difftest.Check(t, difftest.Row{Module: m, Env: env, Engines: hostEngines, Rule: difftest.Same})[mem.Trap]
			if !o.Trapped || o.Kind != trap.OutOfBounds {
				t.Errorf("%v, want an out-of-bounds trap", o)
			}
		})
	}
}

// FuzzWASIDiff keeps the host iovec seeds on every engine; FuzzDiff in
// internal/compiled fuzzes the same scenarios (family.Fuzz).
func FuzzWASIDiff(f *testing.F) { family.Fuzz(f, nil, hostEngines) }

// TestRandConcurrent is the race regression for the shared PRNG: one
// Env serves hostcalls from several instances at once (the
// multithreaded-guest shape), all drawing from random_get. Run under
// -race this flags any unguarded use of math/rand.Rand.
func TestRandConcurrent(t *testing.T) {
	mb := g.NewModule()
	random := mb.ImportFunc("wasi_snapshot_preview1", "random_get",
		[]wasm.ValueType{wasm.I32, wasm.I32}, []wasm.ValueType{wasm.I32})
	mb.Memory(1, 1)
	f := mb.Func("run", wasm.I64)
	i := f.LocalI32("i")
	f.Body(
		g.For(i, g.I32(0), g.I32(200),
			g.Drop(g.Call(random, g.I32(0), g.I32(64)))),
		g.Return(g.LoadI64(g.I32(0), 0)),
	)
	mb.Export("run", f)
	m, err := mb.Module()
	if err != nil {
		t.Fatal(err)
	}
	cm, err := compiled.NewWAVM().Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	env := wasi.NewEnv(nil, nil)
	const workers = 4
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func() {
			inst, err := cm.Instantiate(core.Config{Profile: isa.X86_64()}, env.Imports())
			if err != nil {
				errs <- err
				return
			}
			defer inst.Close()
			_, err = inst.Invoke("run")
			errs <- err
		}()
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestFSSurface exercises the fd surface end to end from the guest:
// prestat discovery, path_open with create+trunc, filestat, seek
// semantics, and partial reads at EOF, on every engine and strategy.
func TestFSSurface(t *testing.T) {
	mb := g.NewModule()
	prestatGet := mb.ImportFunc("wasi_snapshot_preview1", "fd_prestat_get",
		[]wasm.ValueType{wasm.I32, wasm.I32}, []wasm.ValueType{wasm.I32})
	prestatName := mb.ImportFunc("wasi_snapshot_preview1", "fd_prestat_dir_name",
		[]wasm.ValueType{wasm.I32, wasm.I32, wasm.I32}, []wasm.ValueType{wasm.I32})
	pathOpen := mb.ImportFunc("wasi_snapshot_preview1", "path_open",
		[]wasm.ValueType{wasm.I32, wasm.I32, wasm.I32, wasm.I32, wasm.I32, wasm.I64, wasm.I64, wasm.I32, wasm.I32},
		[]wasm.ValueType{wasm.I32})
	fdWrite := mb.ImportFunc("wasi_snapshot_preview1", "fd_write",
		[]wasm.ValueType{wasm.I32, wasm.I32, wasm.I32, wasm.I32}, []wasm.ValueType{wasm.I32})
	fdRead := mb.ImportFunc("wasi_snapshot_preview1", "fd_read",
		[]wasm.ValueType{wasm.I32, wasm.I32, wasm.I32, wasm.I32}, []wasm.ValueType{wasm.I32})
	fdSeek := mb.ImportFunc("wasi_snapshot_preview1", "fd_seek",
		[]wasm.ValueType{wasm.I32, wasm.I64, wasm.I32, wasm.I32}, []wasm.ValueType{wasm.I32})
	filestatGet := mb.ImportFunc("wasi_snapshot_preview1", "fd_filestat_get",
		[]wasm.ValueType{wasm.I32, wasm.I32}, []wasm.ValueType{wasm.I32})
	fdClose := mb.ImportFunc("wasi_snapshot_preview1", "fd_close",
		[]wasm.ValueType{wasm.I32}, []wasm.ValueType{wasm.I32})
	mb.Memory(1, 2)
	mb.Data(16, []byte("out.bin"))
	mb.Data(32, []byte("0123456789abcdef"))

	f := mb.Func("run", wasm.I64)
	fd := f.LocalI32("fd")
	d := f.LocalI64("d")
	fold := func(e g.Expr) g.Stmt {
		return g.Set(d, g.Add(g.Mul(g.Get(d), g.I64(1000003)), e))
	}
	f.Body(
		// prestat: fd 3 is a preopen named "/".
		fold(g.I64FromI32U(g.Call(prestatGet, g.I32(3), g.I32(64)))),
		fold(g.I64FromI32U(g.LoadI32(g.I32(64), 0))), // tag 0
		fold(g.I64FromI32U(g.LoadI32(g.I32(68), 0))), // name len 1
		fold(g.I64FromI32U(g.Call(prestatName, g.I32(3), g.I32(72), g.I32(1)))),
		fold(g.I64FromI32U(g.LoadU8(g.I32(72), 0))), // '/'
		// prestat on a non-preopen fd: badf.
		fold(g.I64FromI32U(g.Call(prestatGet, g.I32(9), g.I32(64)))),
		// open with CREAT|TRUNC, write 16 bytes.
		fold(g.I64FromI32U(g.Call(pathOpen,
			g.I32(3), g.I32(0), g.I32(16), g.I32(7),
			g.I32(9), g.I64(0), g.I64(0), g.I32(0), g.I32(80)))),
		g.Set(fd, g.LoadI32(g.I32(80), 0)),
		g.StoreI32(g.I32(96), 0, g.I32(32)),
		g.StoreI32(g.I32(100), 0, g.I32(16)),
		fold(g.I64FromI32U(g.Call(fdWrite, g.Get(fd), g.I32(96), g.I32(1), g.I32(104)))),
		fold(g.I64FromI32U(g.LoadI32(g.I32(104), 0))), // nwritten 16
		// filestat: size 16 at offset 32 of the 64-byte struct.
		fold(g.I64FromI32U(g.Call(filestatGet, g.Get(fd), g.I32(128)))),
		fold(g.I64FromI32U(g.LoadI32(g.I32(128+32), 0))),
		fold(g.I64FromI32U(g.LoadU8(g.I32(128+16), 0))), // filetype 4
		// seek END-4, read far past EOF: 4 bytes delivered.
		fold(g.I64FromI32U(g.Call(fdSeek, g.Get(fd), g.I64(-4), g.I32(2), g.I32(104)))),
		g.StoreI32(g.I32(96), 0, g.I32(200)),
		g.StoreI32(g.I32(100), 0, g.I32(50)),
		fold(g.I64FromI32U(g.Call(fdRead, g.Get(fd), g.I32(96), g.I32(1), g.I32(104)))),
		fold(g.I64FromI32U(g.LoadI32(g.I32(104), 0))), // nread 4
		fold(g.I64FromI32U(g.LoadI32(g.I32(200), 0))), // "cdef"
		// negative seek: inval, position unchanged.
		fold(g.I64FromI32U(g.Call(fdSeek, g.Get(fd), g.I64(-99), g.I32(0), g.I32(104)))),
		fold(g.I64FromI32U(g.Call(fdClose, g.Get(fd)))),
		fold(g.I64FromI32U(g.Call(fdClose, g.Get(fd)))), // double close: badf
		g.Return(g.Get(d)),
	)
	mb.Export("run", f)
	m, err := mb.Module()
	if err != nil {
		t.Fatal(err)
	}

	// Expected digest, folded the same way the guest folds it.
	want := uint64(0)
	foldN := func(v uint64) { want = want*1000003 + v }
	foldN(0)                  // prestat_get errno
	foldN(0)                  // tag
	foldN(1)                  // name len
	foldN(0)                  // prestat_dir_name errno
	foldN(uint64('/'))        // name byte
	foldN(8)                  // badf
	foldN(0)                  // path_open errno
	foldN(0)                  // fd_write errno
	foldN(16)                 // nwritten
	foldN(0)                  // filestat errno
	foldN(16)                 // size
	foldN(4)                  // filetype
	foldN(0)                  // seek errno
	foldN(0)                  // fd_read errno
	foldN(4)                  // nread
	foldN(uint64(0x66656463)) // "cdef" little-endian
	foldN(28)                 // inval
	foldN(0)                  // close
	foldN(8)                  // double close: badf

	env := func() difftest.Env {
		env := wasi.NewEnv(nil, nil).WithFS(map[string][]byte{})
		return difftest.Env{Imports: env.Imports(), File: func() []byte {
			data, _ := env.FS.ReadFile("out.bin")
			return data
		}}
	}
	o := difftest.Check(t, difftest.Row{Module: m, Env: env, Engines: hostEngines, Rule: difftest.Same})[mem.Trap]
	if o.Trapped || o.Digest != want || o.FileHash != difftest.Hash([]byte("0123456789abcdef")) {
		t.Errorf("%v, want digest %#x and the file 0123456789abcdef", o, want)
	}
}
