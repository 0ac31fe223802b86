// On-disk compiled-artifact tier: the cross-process half of the
// cache. wazero ships the production analog (wazero.NewCompilationCacheWithDir):
// a fleet of processes serving the same modules pays compilation once
// per machine, not once per process. The tier is content-addressed —
// file names derive from the same (module hash, engine, opts) key as
// the in-memory tier — and crash-safe by construction:
//
//   - publication is atomic: artifacts are written to a temp file in
//     the cache directory and rename(2)d into place, so a reader
//     never observes a half-written file under the final name;
//   - every file carries a header echoing its full key plus an fnv64a
//     footer over the entire contents; any mismatch (torn write from
//     a crashed sibling, bit rot, a colliding name from a different
//     layout version) counts as corruption, deletes the file, and
//     falls back to a fresh compile;
//   - a load is one plain read of the file; the payload the codec
//     decodes is a window of that buffer, not a second copy.
//
// File layout (little-endian):
//
//	offset  size  field
//	0       4     magic "LBC1"
//	4       4     len(engine) = E
//	8       E     engine name bytes
//	8+E     4     len(opts) = O
//	12+E    O     codegen options bytes
//	12+E+O  32    module content hash (sha256)
//	44+E+O  8     len(payload) = P
//	52+E+O  P     artifact payload (engine-defined: the compiled
//	              engines' is their register IR in rir's flat form)
//	52+E+O+P 8    fnv64a over bytes [0, 52+E+O+P)
package modcache

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"

	"leapsandbounds/internal/obs"
)

var diskMagic = [4]byte{'L', 'B', 'C', '1'}

// diskHeaderLen is the fixed part of the header (magic + two length
// words + hash + payload length).
const diskHeaderLen = 4 + 4 + 4 + 32 + 8

// diskFooterLen is the fnv64a checksum.
const diskFooterLen = 8

// DiskTier is one artifact directory. Safe for concurrent use by any
// number of goroutines and — by the atomic-rename publication
// protocol — any number of processes.
type DiskTier struct {
	dir string

	hits    obs.Counter
	misses  obs.Counter
	writes  obs.Counter
	corrupt obs.Counter
	errors  obs.Counter
}

// NewDiskTier opens (creating if needed) an artifact directory.
func NewDiskTier(dir string) (*DiskTier, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("modcache: disk tier: %w", err)
	}
	return &DiskTier{dir: dir}, nil
}

// AttachObs registers the tier's own counters under sc (typically
// the cache's scope's "disk" child).
func (d *DiskTier) AttachObs(sc *obs.Scope) {
	sc.RegisterCounter("hits", &d.hits)
	sc.RegisterCounter("misses", &d.misses)
	sc.RegisterCounter("writes", &d.writes)
	sc.RegisterCounter("corrupt", &d.corrupt)
	sc.RegisterCounter("errors", &d.errors)
}

// DiskStats is a point-in-time snapshot of the tier's counters.
type DiskStats struct {
	Hits, Misses, Writes, Corrupt, Errors int64
}

// Stats snapshots the counters.
func (d *DiskTier) Stats() DiskStats {
	return DiskStats{
		Hits:    d.hits.Load(),
		Misses:  d.misses.Load(),
		Writes:  d.writes.Load(),
		Corrupt: d.corrupt.Load(),
		Errors:  d.errors.Load(),
	}
}

// path derives the artifact file name for a key: the full module hash
// in hex plus an fnv64a fold of engine and options. The module hash
// carries the collision resistance; the fold only separates artifacts
// of the same module under different engines/knobs.
func (d *DiskTier) path(k Key) string {
	h := fnv.New64a()
	h.Write([]byte(k.Engine))
	h.Write([]byte{0})
	h.Write([]byte(k.Opts))
	return filepath.Join(d.dir, fmt.Sprintf("%x-%016x.lbc", k.Module[:], h.Sum64()))
}

// load returns the artifact payload for k, or ok=false on miss or
// corruption (corrupt files are deleted so the slot heals on the next
// store). The payload is a window of the one buffer the file was read
// into, so it stays valid after the file is replaced or deleted.
func (d *DiskTier) load(k Key) ([]byte, bool) {
	path := d.path(k)
	data, err := os.ReadFile(path)
	if err != nil {
		if !os.IsNotExist(err) {
			d.errors.Inc()
		}
		d.misses.Inc()
		return nil, false
	}
	payload, ok := d.verify(k, data)
	if !ok {
		d.corrupt.Inc()
		_ = os.Remove(path)
		d.misses.Inc()
		return nil, false
	}
	d.hits.Inc()
	return payload, true
}

// verify checks the file structure, key echo, and footer, returning
// the payload window on success.
func (d *DiskTier) verify(k Key, data []byte) ([]byte, bool) {
	if len(data) < diskHeaderLen+diskFooterLen {
		return nil, false
	}
	if [4]byte(data[0:4]) != diskMagic {
		return nil, false
	}
	off := 4
	elen := int(binary.LittleEndian.Uint32(data[off:]))
	off += 4
	if elen < 0 || off+elen > len(data) || string(data[off:off+elen]) != k.Engine {
		return nil, false
	}
	off += elen
	if off+4 > len(data) {
		return nil, false
	}
	olen := int(binary.LittleEndian.Uint32(data[off:]))
	off += 4
	if olen < 0 || off+olen > len(data) || string(data[off:off+olen]) != k.Opts {
		return nil, false
	}
	off += olen
	if off+32+8 > len(data) {
		return nil, false
	}
	if string(data[off:off+32]) != string(k.Module[:]) {
		return nil, false
	}
	off += 32
	plen := binary.LittleEndian.Uint64(data[off:])
	off += 8
	if uint64(len(data)-off-diskFooterLen) != plen {
		return nil, false
	}
	body := data[:len(data)-diskFooterLen]
	h := fnv.New64a()
	h.Write(body)
	if h.Sum64() != binary.LittleEndian.Uint64(data[len(data)-diskFooterLen:]) {
		return nil, false
	}
	return data[off : off+int(plen)], true
}

// decodeCorrupt records that a payload which passed the footer check
// still failed its codec, and deletes the file so the slot heals on
// the next store.
func (d *DiskTier) decodeCorrupt(k Key) {
	d.corrupt.Inc()
	_ = os.Remove(d.path(k))
}

// store publishes an artifact under k. Best-effort: failures count in
// Errors and are otherwise invisible to the caller — the disk tier is
// an accelerator, never a correctness dependency.
func (d *DiskTier) store(k Key, payload []byte) {
	err := d.storeErr(k, payload)
	if err != nil {
		d.errors.Inc()
		return
	}
	d.writes.Inc()
}

func (d *DiskTier) storeErr(k Key, payload []byte) error {
	buf := make([]byte, 0, diskHeaderLen+len(k.Engine)+len(k.Opts)+len(payload)+diskFooterLen)
	buf = append(buf, diskMagic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(k.Engine)))
	buf = append(buf, k.Engine...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(k.Opts)))
	buf = append(buf, k.Opts...)
	buf = append(buf, k.Module[:]...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	h := fnv.New64a()
	h.Write(buf)
	buf = binary.LittleEndian.AppendUint64(buf, h.Sum64())

	// Temp file in the same directory so the rename is same-filesystem
	// (the atomicity guarantee) and a crash leaves only a *.tmp to sweep.
	f, err := os.CreateTemp(d.dir, ".lbc-*.tmp")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := f.Write(buf); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, d.path(k)); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}
