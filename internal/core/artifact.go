package core

import (
	"errors"

	"leapsandbounds/internal/wasm"
)

// ErrNoArtifact is returned by ArtifactCodec implementations for
// compiled modules that cannot round-trip through bytes (foreign
// module types, engines whose artifacts are closure graphs with no
// serializable core).
var ErrNoArtifact = errors.New("core: compiled module has no serializable artifact")

// ArtifactCodec is implemented by engines whose compiled artifacts
// can be serialized and rebuilt, enabling an on-disk cache tier that
// multi-process fleets share (wazero's compilation cache is the
// production analog). The codec contract:
//
//   - EncodeArtifact(Compile(m)) followed by DecodeArtifact(m, bytes)
//     on an engine with identical codegen options yields a module
//     observationally identical to Compile(m) — same digests, same
//     trap sites;
//   - the byte format needs no stability across engine-option changes:
//     the cache keys artifacts by (module hash, engine, opts), so a
//     knob change addresses different files;
//   - DecodeArtifact must validate what it reads and fail loudly on
//     malformed input — the disk tier treats a decode error as
//     corruption and falls back to a fresh compile.
type ArtifactCodec interface {
	EncodeArtifact(cm CompiledModule) ([]byte, error)
	DecodeArtifact(m *wasm.Module, data []byte) (CompiledModule, error)
}

// Provenance says where a cache-mediated compiled module came from.
type Provenance int

const (
	// FromCompile: the compile function ran (cold miss everywhere).
	FromCompile Provenance = iota
	// FromMemory: served by the in-process cache (or an in-flight
	// compile another goroutine was already running).
	FromMemory
	// FromDisk: rebuilt from the on-disk artifact tier — no compile
	// ran in this process.
	FromDisk
)
