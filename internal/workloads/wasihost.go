// The syscall-heavy workload family: programs whose inner loops are
// dominated by WASI hostcalls rather than loads and stores. The
// paper's workloads are pure-compute kernels where the bounds check
// rides on every memory access; these three invert the ratio — the
// cost under study is the guest→host boundary crossing itself (per
// eWAPA, a first-class runtime cost) and the price of handing the host
// a checked slice of guest memory: one bulk bounds check per range,
// which under mprotect/uffd also faults the range's pages in.
//
// Like every other workload the three exist twice — as a wasm module
// driving fd_read/fd_write/fd_seek/path_open against a preopened
// in-memory filesystem, and as a native Go twin folding the same
// bytes with the same arithmetic — so checksum equality is enforced
// across all engines and all five strategies. Each file image is built
// once per size class and shared read-only: wasi.NewFS copies it into
// every fresh filesystem (the Env holding the filesystem is fresh per
// instantiation because the kvstore and echo workloads mutate their
// files), and the one twin that writes, kvstore's, folds over a clone.
// An op then costs its hostcalls, not the rendering of its input.
package workloads

import (
	"fmt"
	"slices"
	"sync"

	"leapsandbounds/internal/wasi"
	"leapsandbounds/internal/wasm"
	g "leapsandbounds/internal/wasmgen"
)

// Guest memory layout shared by the three workloads (all well under
// the one-page minimum memory).
const (
	wasiAddrFD   = 8    // path_open result fd
	wasiAddrFD2  = 16   // second fd (echo)
	wasiAddrN    = 24   // fd_read/fd_write count result
	wasiAddrSeek = 32   // fd_seek position result (u64)
	wasiAddrPath = 48   // first file name
	wasiAddrIov  = 96   // iovec
	wasiAddrBuf  = 1024 // primary data buffer
	wasiAddrBuf2 = 4096 // secondary data buffer (echo transform)
)

// sharedImage memoizes a file-image builder: build runs at most once
// per class, and every caller gets the same slice, which nobody may
// write.
func sharedImage(build func(Class) []byte) func(Class) []byte {
	test := sync.OnceValue(func() []byte { return build(Test) })
	bench := sync.OnceValue(func() []byte { return build(Bench) })
	return func(c Class) []byte {
		if c == Test {
			return test()
		}
		return bench()
	}
}

// The shared, read-only file images of the three workloads.
var (
	logImage  = sharedImage(logContent)
	kvImage   = sharedImage(kvContent)
	echoImage = sharedImage(echoContent)
)

// wasiMix steps the content generator (the 64-bit LCG the kvstore
// guest also runs, so one constant pair serves both uses).
func wasiMix(k uint64) uint64 { return k*6364136223846793005 + 1442695040888963407 }

// logContent renders a deterministic access log: one line per
// request, ASCII, newline-terminated.
func logContent(c Class) []byte {
	lines := int(pick(c, 120, 1800))
	methods := []string{"GET", "PUT", "POST", "HEAD"}
	codes := []int{200, 200, 200, 204, 301, 404, 500}
	var out []byte
	k := uint64(0x10c5ca11)
	for i := 0; i < lines; i++ {
		k = wasiMix(k)
		m := methods[k>>33%uint64(len(methods))]
		k = wasiMix(k)
		item := k >> 40 % 100000
		k = wasiMix(k)
		code := codes[k>>33%uint64(len(codes))]
		k = wasiMix(k)
		size := k >> 44 % 65536
		out = append(out, fmt.Sprintf("%s /item/%d %d %d\n", m, item, code, size)...)
	}
	return out
}

// kvRecordSize and kvRecords shape the kvstore database file.
const kvRecordSize = 64

func kvRecords(c Class) int { return int(pick(c, 32, 128)) }
func kvOps(c Class) int     { return int(pick(c, 48, 1024)) }

// kvContent is the initial database image: records of deterministic
// filler bytes.
func kvContent(c Class) []byte {
	n := kvRecords(c) * kvRecordSize
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(uint64(i) * 0x9E3779B97F4A7C15 >> 56)
	}
	return out
}

// echoFrameSize and echoFrames shape the echo request stream.
const echoFrameSize = 96

func echoFrames(c Class) int { return int(pick(c, 12, 128)) }

// echoContent is the inbound request stream: fixed-size frames of
// deterministic bytes.
func echoContent(c Class) []byte {
	n := echoFrames(c) * echoFrameSize
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(uint64(i) * 2654435761 >> 24)
	}
	return out
}

// wasiImports declares the wasi_snapshot_preview1 imports a workload
// module needs (imports must precede defined functions in wasmgen).
type wasiImports struct {
	pathOpen, fdRead, fdWrite, fdSeek, fdClose *g.Func
}

func declareWASIImports(mb *g.ModuleBuilder) wasiImports {
	i32, i64 := wasm.I32, wasm.I64
	return wasiImports{
		pathOpen: mb.ImportFunc("wasi_snapshot_preview1", "path_open",
			[]wasm.ValueType{i32, i32, i32, i32, i32, i64, i64, i32, i32}, []wasm.ValueType{i32}),
		fdRead: mb.ImportFunc("wasi_snapshot_preview1", "fd_read",
			[]wasm.ValueType{i32, i32, i32, i32}, []wasm.ValueType{i32}),
		fdWrite: mb.ImportFunc("wasi_snapshot_preview1", "fd_write",
			[]wasm.ValueType{i32, i32, i32, i32}, []wasm.ValueType{i32}),
		fdSeek: mb.ImportFunc("wasi_snapshot_preview1", "fd_seek",
			[]wasm.ValueType{i32, i64, i32, i32}, []wasm.ValueType{i32}),
		fdClose: mb.ImportFunc("wasi_snapshot_preview1", "fd_close",
			[]wasm.ValueType{i32}, []wasm.ValueType{i32}),
	}
}

// openStmt emits "path_open(preopen, name) and store the fd at
// fdAddr" — the name bytes must already sit at pathAddr.
func openStmt(im wasiImports, pathAddr, pathLen, oflags uint32, fdAddr uint32) g.Stmt {
	return g.Drop(g.Call(im.pathOpen,
		g.I32(3), g.I32(0), g.U32(pathAddr), g.U32(pathLen),
		g.U32(oflags), g.I64(0), g.I64(0), g.I32(0), g.U32(fdAddr)))
}

// buildLogscan: open access.log, read it in small chunks, fold every
// byte into a rolling checksum and count newlines — ~1 hostcall per
// chunk with a short scan between calls.
func buildLogscan(c Class) (*wasm.Module, func() uint64) {
	const chunk = 192

	mb := g.NewModule()
	im := declareWASIImports(mb)
	mb.Memory(1, 4)
	name := []byte("access.log")
	mb.Data(wasiAddrPath, name)

	f := mb.Func("run", wasm.I64)
	fd := f.LocalI32("fd")
	nread := f.LocalI32("nread")
	i := f.LocalI32("i")
	b := f.LocalI32("b")
	sum := f.LocalI64("sum")
	lines := f.LocalI64("lines")
	f.Body(
		openStmt(im, wasiAddrPath, uint32(len(name)), 0, wasiAddrFD),
		g.Set(fd, g.LoadI32(g.U32(wasiAddrFD), 0)),
		g.StoreI32(g.U32(wasiAddrIov), 0, g.U32(wasiAddrBuf)),
		g.StoreI32(g.U32(wasiAddrIov), 4, g.I32(chunk)),
		g.While(g.I32(1),
			g.Drop(g.Call(im.fdRead, g.Get(fd), g.U32(wasiAddrIov), g.I32(1), g.U32(wasiAddrN))),
			g.Set(nread, g.LoadI32(g.U32(wasiAddrN), 0)),
			g.If(g.Eqz(g.Get(nread)), g.Break()),
			g.For(i, g.I32(0), g.Get(nread),
				g.Set(b, g.LoadU8(g.Add(g.U32(wasiAddrBuf), g.Get(i)), 0)),
				g.Set(sum, g.Add(g.Mul(g.Get(sum), g.I64(31)), g.I64FromI32U(g.Get(b)))),
				g.If(g.Eq(g.Get(b), g.I32('\n')),
					g.Set(lines, g.Add(g.Get(lines), g.I64(1)))),
			),
		),
		g.Drop(g.Call(im.fdClose, g.Get(fd))),
		g.Return(g.Add(g.Mul(g.Get(sum), g.I64(1000003)), g.Get(lines))),
	)
	mb.Export("run", f)
	m, err := mb.Module()
	if err != nil {
		panic(err)
	}
	native := func() uint64 {
		var sum, lines uint64
		for _, by := range logImage(c) {
			sum = sum*31 + uint64(by)
			if by == '\n' {
				lines++
			}
		}
		return sum*1000003 + lines
	}
	return m, native
}

// buildKvstore: an LCG walks record indices over a preopened
// database file; every op seeks, then either overwrites the record
// (every 4th op) or reads it into the checksum — two or three
// hostcalls per op with almost no compute between them.
func buildKvstore(c Class) (*wasm.Module, func() uint64) {
	records := kvRecords(c)
	ops := kvOps(c)

	mb := g.NewModule()
	im := declareWASIImports(mb)
	mb.Memory(1, 4)
	name := []byte("db")
	mb.Data(wasiAddrPath, name)

	f := mb.Func("run", wasm.I64)
	fd := f.LocalI32("fd")
	i := f.LocalI32("i")
	j := f.LocalI32("j")
	k := f.LocalI64("k")
	off := f.LocalI64("off")
	sum := f.LocalI64("sum")
	f.Body(
		openStmt(im, wasiAddrPath, uint32(len(name)), 0, wasiAddrFD),
		g.Set(fd, g.LoadI32(g.U32(wasiAddrFD), 0)),
		g.Set(k, g.I64(0x6b76)),
		g.StoreI32(g.U32(wasiAddrIov), 0, g.U32(wasiAddrBuf)),
		g.StoreI32(g.U32(wasiAddrIov), 4, g.I32(kvRecordSize)),
		g.For(i, g.I32(0), g.I32(int32(ops)),
			g.Set(k, g.Add(g.Mul(g.Get(k), g.I64(6364136223846793005)), g.I64(1442695040888963407))),
			g.Set(off, g.Mul(
				g.RemU(g.ShrU(g.Get(k), g.I64(33)), g.I64(int64(records))),
				g.I64(kvRecordSize))),
			g.Drop(g.Call(im.fdSeek, g.Get(fd), g.Get(off), g.I32(0), g.U32(wasiAddrSeek))),
			g.IfElse(g.Eqz(g.RemU(g.Get(i), g.I32(4))),
				[]g.Stmt{
					g.MemFill(g.U32(wasiAddrBuf), g.And(g.Get(i), g.I32(255)), g.I32(kvRecordSize)),
					g.Drop(g.Call(im.fdWrite, g.Get(fd), g.U32(wasiAddrIov), g.I32(1), g.U32(wasiAddrN))),
				},
				[]g.Stmt{
					g.Drop(g.Call(im.fdRead, g.Get(fd), g.U32(wasiAddrIov), g.I32(1), g.U32(wasiAddrN))),
					g.For(j, g.I32(0), g.I32(kvRecordSize),
						g.Set(sum, g.Add(g.Mul(g.Get(sum), g.I64(33)),
							g.I64FromI32U(g.LoadU8(g.Add(g.U32(wasiAddrBuf), g.Get(j)), 0)))),
					),
				}),
		),
		g.Drop(g.Call(im.fdClose, g.Get(fd))),
		g.Return(g.Add(g.Mul(g.Get(sum), g.I64(31)), g.I64(int64(ops)))),
	)
	mb.Export("run", f)
	m, err := mb.Module()
	if err != nil {
		panic(err)
	}
	native := func() uint64 {
		data := slices.Clone(kvImage(c))
		k := uint64(0x6b76)
		var sum uint64
		for i := 0; i < ops; i++ {
			k = wasiMix(k)
			off := (k >> 33 % uint64(records)) * kvRecordSize
			if i%4 == 0 {
				for j := 0; j < kvRecordSize; j++ {
					data[off+uint64(j)] = byte(i)
				}
			} else {
				for j := 0; j < kvRecordSize; j++ {
					sum = sum*33 + uint64(data[off+uint64(j)])
				}
			}
		}
		return sum*31 + uint64(ops)
	}
	return m, native
}

// buildEcho: request/response echo — read fixed-size frames from
// in.bin, XOR-transform each, write it to out.bin, then seek out.bin
// back to the start and re-read everything (4 hostcalls per frame
// plus the verification pass).
func buildEcho(c Class) (*wasm.Module, func() uint64) {
	mb := g.NewModule()
	im := declareWASIImports(mb)
	mb.Memory(1, 4)
	nameIn := []byte("in.bin")
	nameOut := []byte("out.bin")
	pathOut := uint32(wasiAddrPath + 16)
	mb.Data(wasiAddrPath, nameIn)
	mb.Data(pathOut, nameOut)

	f := mb.Func("run", wasm.I64)
	fdIn := f.LocalI32("fdin")
	fdOut := f.LocalI32("fdout")
	nread := f.LocalI32("nread")
	j := f.LocalI32("j")
	b := f.LocalI32("b")
	sum := f.LocalI64("sum")
	sum2 := f.LocalI64("sum2")
	f.Body(
		openStmt(im, wasiAddrPath, uint32(len(nameIn)), 0, wasiAddrFD),
		g.Set(fdIn, g.LoadI32(g.U32(wasiAddrFD), 0)),
		// oflags CREAT|TRUNC: the response file is created fresh.
		openStmt(im, pathOut, uint32(len(nameOut)), 9, wasiAddrFD2),
		g.Set(fdOut, g.LoadI32(g.U32(wasiAddrFD2), 0)),
		g.StoreI32(g.U32(wasiAddrIov), 0, g.U32(wasiAddrBuf)),
		g.StoreI32(g.U32(wasiAddrIov), 4, g.I32(echoFrameSize)),
		g.StoreI32(g.U32(wasiAddrIov+8), 0, g.U32(wasiAddrBuf2)),
		g.While(g.I32(1),
			g.Drop(g.Call(im.fdRead, g.Get(fdIn), g.U32(wasiAddrIov), g.I32(1), g.U32(wasiAddrN))),
			g.Set(nread, g.LoadI32(g.U32(wasiAddrN), 0)),
			g.If(g.Eqz(g.Get(nread)), g.Break()),
			g.For(j, g.I32(0), g.Get(nread),
				g.Set(b, g.Xor(g.LoadU8(g.Add(g.U32(wasiAddrBuf), g.Get(j)), 0), g.I32(0x5A))),
				g.StoreU8(g.Add(g.U32(wasiAddrBuf2), g.Get(j)), 0, g.Get(b)),
				g.Set(sum, g.Add(g.Mul(g.Get(sum), g.I64(131)), g.I64FromI32U(g.Get(b)))),
			),
			g.StoreI32(g.U32(wasiAddrIov+8), 4, g.Get(nread)),
			g.Drop(g.Call(im.fdWrite, g.Get(fdOut), g.U32(wasiAddrIov+8), g.I32(1), g.U32(wasiAddrN))),
		),
		// Verification pass: stream the response file back.
		g.Drop(g.Call(im.fdSeek, g.Get(fdOut), g.I64(0), g.I32(0), g.U32(wasiAddrSeek))),
		g.While(g.I32(1),
			g.Drop(g.Call(im.fdRead, g.Get(fdOut), g.U32(wasiAddrIov), g.I32(1), g.U32(wasiAddrN))),
			g.Set(nread, g.LoadI32(g.U32(wasiAddrN), 0)),
			g.If(g.Eqz(g.Get(nread)), g.Break()),
			g.For(j, g.I32(0), g.Get(nread),
				g.Set(sum2, g.Add(g.Mul(g.Get(sum2), g.I64(29)),
					g.I64FromI32U(g.LoadU8(g.Add(g.U32(wasiAddrBuf), g.Get(j)), 0)))),
			),
		),
		g.Drop(g.Call(im.fdClose, g.Get(fdIn))),
		g.Drop(g.Call(im.fdClose, g.Get(fdOut))),
		g.Return(g.Xor(g.Mul(g.Get(sum), g.I64(1000000007)), g.Get(sum2))),
	)
	mb.Export("run", f)
	m, err := mb.Module()
	if err != nil {
		panic(err)
	}
	native := func() uint64 {
		in := echoImage(c)
		var sum, sum2 uint64
		transformed := make([]byte, len(in))
		for i, by := range in {
			t := by ^ 0x5A
			transformed[i] = t
			sum = sum*131 + uint64(t)
		}
		for _, t := range transformed {
			sum2 = sum2*29 + uint64(t)
		}
		return sum*1000000007 ^ sum2
	}
	return m, native
}

func init() {
	register(Spec{
		Name:    "logscan",
		Suite:   "wasi",
		Desc:    "chunked fd_read scan of an access log (hostcall per chunk)",
		BuildFn: buildLogscan,
		NewEnv: func(c Class) *wasi.Env {
			return wasi.NewEnv(nil, nil).WithFS(map[string][]byte{"access.log": logImage(c)})
		},
	})
	register(Spec{
		Name:    "kvstore",
		Suite:   "wasi",
		Desc:    "seek+read/write record ops against a preopened db file",
		BuildFn: buildKvstore,
		NewEnv: func(c Class) *wasi.Env {
			return wasi.NewEnv(nil, nil).WithFS(map[string][]byte{"db": kvImage(c)})
		},
	})
	register(Spec{
		Name:    "echo",
		Suite:   "wasi",
		Desc:    "request/response echo: read, transform, write, re-read",
		BuildFn: buildEcho,
		NewEnv: func(c Class) *wasi.Env {
			return wasi.NewEnv(nil, nil).WithFS(map[string][]byte{"in.bin": echoImage(c)})
		},
	})
}
