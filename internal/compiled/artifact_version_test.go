package compiled

import (
	"bytes"
	"encoding/gob"
	"os"
	"path/filepath"
	"testing"

	"leapsandbounds/internal/core"
	"leapsandbounds/internal/modcache"
)

// staleCodec publishes artifacts stamped with an older version, as a
// binary from before the bump would have.
type staleCodec struct {
	*Engine
	version int
}

func (c staleCodec) EncodeArtifact(cm core.CompiledModule) ([]byte, error) {
	data, err := c.Engine.EncodeArtifact(cm)
	if err != nil {
		return nil, err
	}
	var art artifact
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&art); err != nil {
		return nil, err
	}
	art.Version = c.version
	var buf bytes.Buffer
	err = gob.NewEncoder(&buf).Encode(&art)
	return buf.Bytes(), err
}

// TestStaleArtifactVersionRecompiles: a version-1 .lbc left in the
// cache directory by an older binary is corruption to this one — the
// file is deleted, the module compiled and a current artifact
// published in its place, which the next process then loads.
func TestStaleArtifactVersionRecompiles(t *testing.T) {
	dir := t.TempDir()
	m := pipelineModule(t)
	attach := func() (*Engine, *modcache.Cache, *modcache.DiskTier) {
		cache := modcache.New(0)
		tier, err := modcache.NewDiskTier(dir)
		if err != nil {
			t.Fatal(err)
		}
		cache.SetDiskTier(tier)
		e := NewWAVM()
		e.SetCache(cache)
		return e, cache, tier
	}

	old, oldCache, oldTier := attach()
	_, _, err := oldCache.GetOrCompileArtifact(m, old.name, old.cacheOpts(), staleCodec{old, artifactVersion - 1},
		func() (core.CompiledModule, error) { return old.compileModule(m) })
	if err != nil {
		t.Fatal(err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*.lbc"))
	if st := oldTier.Stats(); st.Writes != 1 || len(files) != 1 {
		t.Fatalf("old binary published %d artifacts (%v), stats %+v", len(files), files, st)
	}
	stale, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}

	cur, curCache, curTier := attach()
	if _, err := cur.CompileModule(m); err != nil {
		t.Fatal(err)
	}
	// The file passes its checksum (a disk hit) and fails to decode.
	if st := curTier.Stats(); st.Corrupt != 1 || st.Writes != 1 {
		t.Errorf("disk stats on a stale artifact = %+v, want 1 corrupt and 1 write", st)
	}
	if st := curCache.Stats(); st.Compiles != 1 {
		t.Errorf("compiles on a stale artifact = %d, want 1", st.Compiles)
	}
	healed, err := os.ReadFile(files[0])
	if err != nil || bytes.Equal(healed, stale) {
		t.Fatalf("the stale artifact was not replaced (read error %v)", err)
	}

	next, nextCache, nextTier := attach()
	if _, err := next.CompileModule(m); err != nil {
		t.Fatal(err)
	}
	if st, c := nextTier.Stats(), nextCache.Stats(); st.Hits != 1 || c.Compiles != 0 {
		t.Errorf("after healing: disk %+v, %d compiles; want 1 hit and no compile", st, c.Compiles)
	}
}
