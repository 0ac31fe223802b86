// In-memory filesystem behind the WASI fd surface. The shape follows
// wazero's wasi_snapshot_preview1 host module: one preopened
// directory (fd 3) advertised through fd_prestat_get /
// fd_prestat_dir_name, path_open resolving names against it into a
// per-environment fd table, and fd_read/fd_write/fd_seek operating on
// byte-backed files. Everything lives in host memory — the point is
// the boundary crossing and the guest-memory ranges it checks, not
// disk I/O.
package wasi

import (
	"sync"
)

// FS is an in-memory filesystem: a flat namespace of byte-backed
// files under one preopened directory. Safe for concurrent use (a
// multithreaded guest issues hostcalls from many workers).
type FS struct {
	mu    sync.Mutex
	files map[string]*memFile
}

// memFile is one byte-backed file.
type memFile struct {
	mu   sync.Mutex
	data []byte
}

// NewFS builds a filesystem from name → content. Contents are copied
// so callers can reuse their buffers.
func NewFS(files map[string][]byte) *FS {
	fs := &FS{files: make(map[string]*memFile, len(files))}
	for name, data := range files {
		fs.files[name] = &memFile{data: append([]byte(nil), data...)}
	}
	return fs
}

// lookup returns the named file, creating it when create is set.
func (fs *FS) lookup(name string, create bool) (*memFile, bool) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[name]
	if !ok && create {
		f = &memFile{}
		fs.files[name] = f
		ok = true
	}
	return f, ok
}

// ReadFile returns a copy of the named file's content.
func (fs *FS) ReadFile(name string) ([]byte, bool) {
	f, ok := fs.lookup(name, false)
	if !ok {
		return nil, false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]byte(nil), f.data...), true
}

// size returns the file length.
func (f *memFile) size() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return int64(len(f.data))
}

// truncate resets the file to empty (path_open with O_TRUNC).
func (f *memFile) truncate() {
	f.mu.Lock()
	f.data = f.data[:0]
	f.mu.Unlock()
}

// readAt copies file bytes at off into dst, returning the count
// (short at EOF, 0 past it).
func (f *memFile) readAt(dst []byte, off int64) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	if off < 0 || off >= int64(len(f.data)) {
		return 0
	}
	return copy(dst, f.data[off:])
}

// writeAt stores src at off, zero-extending the file when the write
// lands past the current end. What runs past the end is appended, so a
// run of appending writes grows the slice geometrically instead of
// copying the whole file each time; append zeroes what it extends, so a
// gap past the old end reads as zeros even where a truncate left stale
// bytes in the capacity.
func (f *memFile) writeAt(src []byte, off int64) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	if off < 0 {
		return 0
	}
	if end := int64(len(f.data)); off > end {
		f.data = append(f.data, make([]byte, off-end)...)
	}
	if n := copy(f.data[off:], src); n < len(src) {
		f.data = append(f.data, src[n:]...)
	}
	return len(src)
}

// openFile is one fd-table entry: a file plus a seek position. The
// position is per-fd (two opens of the same file seek independently),
// guarded by the environment's lock.
type openFile struct {
	name string
	f    *memFile
	pos  int64
}
