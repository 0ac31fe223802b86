// Package wasi implements the subset of the WebAssembly System
// Interface (WASI preview 1) that the paper's workloads and the
// example programs need: console output, clocks, randomness, program
// arguments, environment, process exit, and an in-memory filesystem
// behind the fd surface (preopened directory, path_open,
// fd_read/fd_write/fd_seek against byte-backed files — the interface
// shape of wazero's wasi_snapshot_preview1 module). The paper's
// runtimes all target WASI rather than browser APIs (§3.2).
//
// Guest memory is only touched through mem.Memory.Bytes: one bulk
// bounds check per range, which traps out of bounds under every
// strategy and, under mprotect/uffd, commits the range through the
// fault path. The host then reads and writes the live slice in place.
// A grow never moves the backing, so a slice taken before a
// memory.grow landing mid-hostcall is still guest memory after it.
// Out-of-bounds iovec arrays and result pointers trap identically
// under all five strategies (bulk-operation semantics); out-of-bounds
// data buffers clamp to the memory size and surface as WASI
// partial-read/write counts instead of traps.
package wasi

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"time"

	"leapsandbounds/internal/core"
	"leapsandbounds/internal/wasm"
)

// WASI errno values (subset).
const (
	errnoSuccess uint32 = 0
	errnoBadf    uint32 = 8
	errnoInval   uint32 = 28
	errnoNoent   uint32 = 44
	errnoNosys   uint32 = 52
)

// WASI open flags (path_open oflags).
const (
	oflagCreat uint32 = 1
	oflagTrunc uint32 = 8
)

// Well-known file descriptors: 0-2 are the console, 3 is the
// preopened directory, files open at 4 and up.
const (
	preopenFD   uint32 = 3
	firstFileFD uint32 = 4
)

// ExitError is returned from Invoke when the guest calls proc_exit.
type ExitError struct {
	Code uint32
}

func (e *ExitError) Error() string {
	return fmt.Sprintf("wasi: proc_exit(%d)", e.Code)
}

// Env is the host-side WASI state for one instance. Safe for
// concurrent hostcalls (multithreaded guests share one Env): the fd
// table and the PRNG are lock-guarded, the filesystem locks
// internally.
type Env struct {
	Args    []string
	Environ []string
	Stdout  io.Writer
	Stderr  io.Writer
	// Now returns the wall-clock time; defaults to time.Now. Tests
	// substitute a deterministic clock.
	Now func() time.Time
	// Rand is the random_get source. Left nil, the first random_get
	// seeds a fixed-seed PRNG (randSeed), so runs are reproducible and
	// an Env that never draws pays nothing for it; one set before the
	// first call is used as is. Guarded by mu — math/rand.Rand is not
	// safe for concurrent use.
	Rand *rand.Rand
	// FS is the in-memory filesystem preopened at fd 3 (nil leaves
	// the environment console-only: path_open reports badf).
	FS *FS
	// PreopenDir is the directory name fd_prestat_dir_name reports
	// for fd 3; defaults to "/".
	PreopenDir string
	// MidHostcall, when non-nil, runs inside fd_read/fd_write after
	// the guest-memory slices are taken and before they are used.
	// Differential tests force a memory.grow here to pin that a slice
	// taken before a grow is still guest memory after it, under every
	// strategy.
	MidHostcall func(hc *core.HostContext)

	start time.Time

	// mu guards Rand and the fd table.
	mu     sync.Mutex
	fds    map[uint32]*openFile
	nextFD uint32
}

// randSeed seeds the PRNG random_get creates when Env.Rand is nil.
const randSeed = 0x1eaf5

// NewEnv returns an Env with deterministic defaults writing to the
// given stdout/stderr.
func NewEnv(stdout, stderr io.Writer) *Env {
	if stdout == nil {
		stdout = io.Discard
	}
	if stderr == nil {
		stderr = io.Discard
	}
	return &Env{
		Stdout:     stdout,
		Stderr:     stderr,
		Now:        time.Now,
		PreopenDir: "/",
		start:      time.Now(),
		fds:        make(map[uint32]*openFile),
		nextFD:     firstFileFD,
	}
}

// WithFS attaches an in-memory filesystem built from name → content
// and returns the Env (builder style).
func (e *Env) WithFS(files map[string][]byte) *Env {
	e.FS = NewFS(files)
	return e
}

// midCall fires the mid-hostcall hook (tests force a grow here).
func (e *Env) midCall(hc *core.HostContext) {
	if e.MidHostcall != nil {
		e.MidHostcall(hc)
	}
}

// lookupFD returns the open file for fd.
func (e *Env) lookupFD(fd uint32) (*openFile, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	of, ok := e.fds[fd]
	return of, ok
}

// storeU32/storeU64 write a result value through a checked range, so
// an out-of-bounds result pointer traps identically under every
// strategy (a scalar store would clamp-redirect under clamp and write
// past the wasm size under none).
func storeU32(hc *core.HostContext, addr uint64, v uint32) {
	binary.LittleEndian.PutUint32(hc.Mem.Bytes(addr, 4, true), v)
}

func storeU64(hc *core.HostContext, addr uint64, v uint64) {
	binary.LittleEndian.PutUint64(hc.Mem.Bytes(addr, 8, true), v)
}

// Imports returns the wasi_snapshot_preview1 import table bound to
// this environment.
func (e *Env) Imports() core.Imports {
	i32 := wasm.I32
	i64 := wasm.I64
	ft := func(params []wasm.ValueType, results ...wasm.ValueType) wasm.FuncType {
		return wasm.FuncType{Params: params, Results: results}
	}
	mod := map[string]core.HostFunc{
		"fd_write": {
			Type: ft([]wasm.ValueType{i32, i32, i32, i32}, i32),
			Fn:   e.fdWrite,
		},
		"fd_read": {
			Type: ft([]wasm.ValueType{i32, i32, i32, i32}, i32),
			Fn:   e.fdRead,
		},
		"fd_close": {
			Type: ft([]wasm.ValueType{i32}, i32),
			Fn:   e.fdClose,
		},
		"fd_seek": {
			Type: ft([]wasm.ValueType{i32, i64, i32, i32}, i32),
			Fn:   e.fdSeek,
		},
		"fd_fdstat_get": {
			Type: ft([]wasm.ValueType{i32, i32}, i32),
			Fn:   e.fdFdstatGet,
		},
		"fd_filestat_get": {
			Type: ft([]wasm.ValueType{i32, i32}, i32),
			Fn:   e.fdFilestatGet,
		},
		"fd_prestat_get": {
			Type: ft([]wasm.ValueType{i32, i32}, i32),
			Fn:   e.fdPrestatGet,
		},
		"fd_prestat_dir_name": {
			Type: ft([]wasm.ValueType{i32, i32, i32}, i32),
			Fn:   e.fdPrestatDirName,
		},
		"path_open": {
			Type: ft([]wasm.ValueType{i32, i32, i32, i32, i32, i64, i64, i32, i32}, i32),
			Fn:   e.pathOpen,
		},
		"proc_exit": {
			Type: ft([]wasm.ValueType{i32}),
			Fn: func(hc *core.HostContext, args []uint64) (uint64, error) {
				return 0, &ExitError{Code: uint32(args[0])}
			},
		},
		"clock_time_get": {
			Type: ft([]wasm.ValueType{i32, i64, i32}, i32),
			Fn:   e.clockTimeGet,
		},
		"random_get": {
			Type: ft([]wasm.ValueType{i32, i32}, i32),
			Fn:   e.randomGet,
		},
		"args_sizes_get": {
			Type: ft([]wasm.ValueType{i32, i32}, i32),
			Fn: func(hc *core.HostContext, args []uint64) (uint64, error) {
				return e.sizes(hc, e.Args, args)
			},
		},
		"args_get": {
			Type: ft([]wasm.ValueType{i32, i32}, i32),
			Fn: func(hc *core.HostContext, args []uint64) (uint64, error) {
				return e.vector(hc, e.Args, args)
			},
		},
		"environ_sizes_get": {
			Type: ft([]wasm.ValueType{i32, i32}, i32),
			Fn: func(hc *core.HostContext, args []uint64) (uint64, error) {
				return e.sizes(hc, e.Environ, args)
			},
		},
		"environ_get": {
			Type: ft([]wasm.ValueType{i32, i32}, i32),
			Fn: func(hc *core.HostContext, args []uint64) (uint64, error) {
				return e.vector(hc, e.Environ, args)
			},
		},
		"sched_yield": {
			Type: ft(nil, i32),
			Fn: func(hc *core.HostContext, args []uint64) (uint64, error) {
				return uint64(errnoSuccess), nil
			},
		},
	}
	return core.Imports{"wasi_snapshot_preview1": mod}
}

// iovec is one guest scatter/gather entry after clamping: base
// address and the in-bounds length (reqLen keeps the requested
// length, so callers can detect a short entry and stop).
type iovec struct {
	ptr    uint64
	n      uint64 // clamped to the memory size
	reqLen uint64
}

// readIovs reads the iovec array through one checked range
// (out-of-bounds arrays trap under every strategy) and clamps each
// entry's data range to the current memory size — data buffers never
// trap, they shorten (WASI partial-count semantics).
func readIovs(hc *core.HostContext, iovs, n uint64) []iovec {
	b := hc.Mem.Bytes(iovs, n*8, false)
	memSize := hc.Mem.SizeBytes()
	out := make([]iovec, n)
	for i := range out {
		ptr := uint64(binary.LittleEndian.Uint32(b[i*8:]))
		length := uint64(binary.LittleEndian.Uint32(b[i*8+4:]))
		clamped := length
		if ptr >= memSize {
			clamped = 0
		} else if ptr+length > memSize {
			clamped = memSize - ptr
		}
		out[i] = iovec{ptr: ptr, n: clamped, reqLen: length}
	}
	return out
}

// fdWrite implements fd_write(fd, iovs, iovsLen, nwrittenPtr):
// gather from guest memory to the console or a file. Every data
// buffer's slice is taken before any data moves, so a mid-hostcall
// grow (MidHostcall hook) lands while the host holds them.
func (e *Env) fdWrite(hc *core.HostContext, args []uint64) (uint64, error) {
	fd := uint32(args[0])
	var w io.Writer
	var of *openFile
	switch fd {
	case 1:
		w = e.Stdout
	case 2:
		w = e.Stderr
	default:
		var ok bool
		if of, ok = e.lookupFD(fd); !ok {
			return uint64(errnoBadf), nil
		}
	}
	iovs := readIovs(hc, uint64(uint32(args[1])), uint64(uint32(args[2])))
	bufs := make([][]byte, len(iovs))
	for i, ent := range iovs {
		if ent.n > 0 {
			bufs[i] = hc.Mem.Bytes(ent.ptr, ent.n, false)
		}
	}
	e.midCall(hc)
	total := uint32(0)
	for i, ent := range iovs {
		if ent.reqLen == 0 {
			continue
		}
		if buf := bufs[i]; len(buf) > 0 {
			if of != nil {
				e.mu.Lock()
				n := of.f.writeAt(buf, of.pos)
				of.pos += int64(n)
				e.mu.Unlock()
				total += uint32(n)
			} else {
				n, err := w.Write(buf)
				total += uint32(n)
				if err != nil {
					break
				}
			}
		}
		if ent.n < ent.reqLen {
			// Short entry: a partial write, reported by count.
			break
		}
	}
	storeU32(hc, uint64(uint32(args[3])), total)
	return uint64(errnoSuccess), nil
}

// fdRead implements fd_read(fd, iovs, iovsLen, nreadPtr): scatter
// from a file (or stdin, which is empty) into guest memory, in place,
// after the mid-hostcall hook.
func (e *Env) fdRead(hc *core.HostContext, args []uint64) (uint64, error) {
	fd := uint32(args[0])
	if fd == 0 {
		// No stdin: report zero bytes read.
		storeU32(hc, uint64(uint32(args[3])), 0)
		return uint64(errnoSuccess), nil
	}
	of, ok := e.lookupFD(fd)
	if !ok {
		return uint64(errnoBadf), nil
	}
	iovs := readIovs(hc, uint64(uint32(args[1])), uint64(uint32(args[2])))

	// Plan the reads first: each slice covers exactly the bytes the
	// file will deliver.
	e.mu.Lock()
	pos := of.pos
	size := of.f.size()
	type readOp struct {
		buf []byte
		off int64
	}
	var ops []readOp
	total := uint32(0)
	short := false
	for _, ent := range iovs {
		if ent.reqLen == 0 {
			continue
		}
		n := ent.n
		if remaining := size - pos; int64(n) > remaining {
			n = uint64(remaining)
			short = true
		}
		if ent.n < ent.reqLen {
			short = true // data buffer clamped by memory size
		}
		if n > 0 {
			ops = append(ops, readOp{buf: hc.Mem.Bytes(ent.ptr, n, true), off: pos})
			pos += int64(n)
			total += uint32(n)
		}
		if short {
			break
		}
	}
	of.pos = pos
	e.mu.Unlock()

	e.midCall(hc)
	for _, op := range ops {
		of.f.readAt(op.buf, op.off)
	}
	storeU32(hc, uint64(uint32(args[3])), total)
	return uint64(errnoSuccess), nil
}

// fdSeek implements fd_seek(fd, offset, whence, newPosPtr).
func (e *Env) fdSeek(hc *core.HostContext, args []uint64) (uint64, error) {
	fd := uint32(args[0])
	of, ok := e.lookupFD(fd)
	if !ok {
		if fd <= 2 {
			return uint64(errnoNosys), nil
		}
		return uint64(errnoBadf), nil
	}
	offset := int64(args[1])
	e.mu.Lock()
	var base int64
	switch uint32(args[2]) {
	case 0: // SET
		base = 0
	case 1: // CUR
		base = of.pos
	case 2: // END
		base = of.f.size()
	default:
		e.mu.Unlock()
		return uint64(errnoInval), nil
	}
	newPos := base + offset
	if newPos < 0 {
		e.mu.Unlock()
		return uint64(errnoInval), nil
	}
	of.pos = newPos
	e.mu.Unlock()
	storeU64(hc, uint64(uint32(args[3])), uint64(newPos))
	return uint64(errnoSuccess), nil
}

// fdClose implements fd_close. Closing a console fd is accepted and
// ignored (the shim keeps stdout/stderr usable).
func (e *Env) fdClose(hc *core.HostContext, args []uint64) (uint64, error) {
	fd := uint32(args[0])
	if fd <= preopenFD {
		return uint64(errnoSuccess), nil
	}
	e.mu.Lock()
	_, ok := e.fds[fd]
	delete(e.fds, fd)
	e.mu.Unlock()
	if !ok {
		return uint64(errnoBadf), nil
	}
	return uint64(errnoSuccess), nil
}

// fdFdstatGet implements fd_fdstat_get: character device for the
// console, directory for the preopen, regular file for table fds.
func (e *Env) fdFdstatGet(hc *core.HostContext, args []uint64) (uint64, error) {
	fd := uint32(args[0])
	var filetype byte
	switch {
	case fd <= 2:
		filetype = 2 // character_device
	case fd == preopenFD && e.FS != nil:
		filetype = 3 // directory
	default:
		if _, ok := e.lookupFD(fd); !ok {
			return uint64(errnoBadf), nil
		}
		filetype = 4 // regular_file
	}
	b := hc.Mem.Bytes(uint64(uint32(args[1])), 24, true)
	clear(b)
	b[0] = filetype
	return uint64(errnoSuccess), nil
}

// fdFilestatGet implements fd_filestat_get for open files: a 64-byte
// filestat with the filetype at offset 16 and the size at offset 32.
func (e *Env) fdFilestatGet(hc *core.HostContext, args []uint64) (uint64, error) {
	of, ok := e.lookupFD(uint32(args[0]))
	if !ok {
		return uint64(errnoBadf), nil
	}
	b := hc.Mem.Bytes(uint64(uint32(args[1])), 64, true)
	clear(b)
	b[16] = 4 // regular_file
	binary.LittleEndian.PutUint64(b[32:], uint64(of.f.size()))
	return uint64(errnoSuccess), nil
}

// fdPrestatGet implements fd_prestat_get: the preopened directory
// announces itself (tag 0 = preopen_dir, then the name length).
func (e *Env) fdPrestatGet(hc *core.HostContext, args []uint64) (uint64, error) {
	if uint32(args[0]) != preopenFD || e.FS == nil {
		return uint64(errnoBadf), nil
	}
	b := hc.Mem.Bytes(uint64(uint32(args[1])), 8, true)
	binary.LittleEndian.PutUint32(b, 0)
	binary.LittleEndian.PutUint32(b[4:], uint32(len(e.PreopenDir)))
	return uint64(errnoSuccess), nil
}

// fdPrestatDirName implements fd_prestat_dir_name(fd, path, pathLen).
func (e *Env) fdPrestatDirName(hc *core.HostContext, args []uint64) (uint64, error) {
	if uint32(args[0]) != preopenFD || e.FS == nil {
		return uint64(errnoBadf), nil
	}
	n := uint64(uint32(args[2]))
	if n > uint64(len(e.PreopenDir)) {
		n = uint64(len(e.PreopenDir))
	}
	if n == 0 {
		return uint64(errnoSuccess), nil
	}
	copy(hc.Mem.Bytes(uint64(uint32(args[1])), n, true), e.PreopenDir)
	return uint64(errnoSuccess), nil
}

// pathOpen implements path_open(dirfd, dirflags, path, pathLen,
// oflags, rightsBase, rightsInheriting, fdflags, openedFdPtr)
// against the preopened in-memory filesystem.
func (e *Env) pathOpen(hc *core.HostContext, args []uint64) (uint64, error) {
	if uint32(args[0]) != preopenFD || e.FS == nil {
		return uint64(errnoBadf), nil
	}
	name := string(hc.Mem.Bytes(uint64(uint32(args[2])), uint64(uint32(args[3])), false))
	oflags := uint32(args[4])
	f, ok := e.FS.lookup(name, oflags&oflagCreat != 0)
	if !ok {
		return uint64(errnoNoent), nil
	}
	if oflags&oflagTrunc != 0 {
		f.truncate()
	}
	e.mu.Lock()
	fd := e.nextFD
	e.nextFD++
	e.fds[fd] = &openFile{name: name, f: f}
	e.mu.Unlock()
	storeU32(hc, uint64(uint32(args[8])), fd)
	return uint64(errnoSuccess), nil
}

// clockTimeGet implements clock_time_get(id, precision, resultPtr).
func (e *Env) clockTimeGet(hc *core.HostContext, args []uint64) (uint64, error) {
	var ns uint64
	switch uint32(args[0]) {
	case 0: // realtime
		ns = uint64(e.Now().UnixNano())
	case 1: // monotonic
		ns = uint64(e.Now().Sub(e.start))
	default:
		return uint64(errnoInval), nil
	}
	storeU64(hc, uint64(uint32(args[2])), ns)
	return uint64(errnoSuccess), nil
}

// randomGet implements random_get(ptr, len). The PRNG draw happens
// under the Env lock: math/rand.Rand is not concurrency-safe, and
// multithreaded guests call here from every worker.
func (e *Env) randomGet(hc *core.HostContext, args []uint64) (uint64, error) {
	ptr := uint64(uint32(args[0]))
	n := uint64(uint32(args[1]))
	if n == 0 {
		return uint64(errnoSuccess), nil
	}
	buf := hc.Mem.Bytes(ptr, n, true)
	var scratch [8]byte
	e.mu.Lock()
	if e.Rand == nil {
		e.Rand = rand.New(rand.NewSource(randSeed))
	}
	for i := 0; i < len(buf); i += 8 {
		binary.LittleEndian.PutUint64(scratch[:], e.Rand.Uint64())
		copy(buf[i:], scratch[:])
	}
	e.mu.Unlock()
	return uint64(errnoSuccess), nil
}

// packedLen is the size of list as packed NUL-terminated strings.
func packedLen(list []string) uint64 {
	total := uint64(0)
	for _, s := range list {
		total += uint64(len(s)) + 1
	}
	return total
}

// sizes implements {args,environ}_sizes_get.
func (e *Env) sizes(hc *core.HostContext, list []string, args []uint64) (uint64, error) {
	storeU32(hc, uint64(uint32(args[0])), uint32(len(list)))
	storeU32(hc, uint64(uint32(args[1])), uint32(packedLen(list)))
	return uint64(errnoSuccess), nil
}

// vector implements {args,environ}_get: pointers then packed NUL-
// terminated strings. The pointer array and the string buffer are one
// checked range each, so either one out of bounds traps before
// anything is written; an empty list writes nothing and checks
// nothing.
func (e *Env) vector(hc *core.HostContext, list []string, args []uint64) (uint64, error) {
	if len(list) == 0 {
		return uint64(errnoSuccess), nil
	}
	ptrs := hc.Mem.Bytes(uint64(uint32(args[0])), uint64(len(list))*4, true)
	base := uint64(uint32(args[1]))
	buf := hc.Mem.Bytes(base, packedLen(list), true)
	at := 0
	for i, s := range list {
		binary.LittleEndian.PutUint32(ptrs[i*4:], uint32(base)+uint32(at))
		at += copy(buf[at:], s)
		buf[at] = 0
		at++
	}
	return uint64(errnoSuccess), nil
}
