// Compiled-module artifacts for the disk cache tier.
//
// What an artifact holds is the front half's IR (Engine.frontHalf):
// the function after rir.Lower (after rir.Optimize and rir.Compact for
// the single-pass engine) and before elision, when every op and cold
// payload is plain data. A compiled function keeps only the stream emit
// chose from the back half's IR, so encoding re-derives each
// function's front half from the module, on one scratch and without
// counting it as a compile. An
// artifact is that IR in rir's own flat form (rir.Func.AppendFlat)
// plus each function's frame size; decoding (rir.ReadFlat) replays only
// the back half of the pipeline (backHalf → emit), never validation,
// flattening, building, optimization or lowering. A function's name,
// type and local count are not stored: the module the artifact was
// compiled from gives them, as it gives them to flatten.
//
// Payload layout (little-endian):
//
//	size  field
//	4     artifactVersion
//	1     codegen flags (Engine.codegenFlags)
//	4     function count = N
//	N ×   4: frame size, then the function's flat stream (rir.ReadFlat)
package compiled

import (
	"encoding/binary"
	"fmt"

	"leapsandbounds/internal/core"
	"leapsandbounds/internal/fanout"
	"leapsandbounds/internal/rir"
	"leapsandbounds/internal/wasm"
)

// artifactVersion guards the payload: its layout, rir's flat records
// and what the front half puts in them. Bump on any change to either; a
// version mismatch decodes as corruption and the disk tier recompiles.
// Version 3: the payload is rir's flat stream. Version 4: the flags byte
// holds optimize and elision only (lowering is part of optimizing).
// Version 5: every engine optimizes, so a wasmtime artifact carries an
// optimized stream and the flags byte's bit 0 means lower; a version 4
// wasmtime file holds the unoptimized stream and must miss rather than
// replay slower code. Version 6: the flat records lose the Pure flag
// bit, so Unchecked takes its place; a version 5 record's Pure bit must
// not read as Unchecked.
const artifactVersion = 6

// artifactHeader is the payload's fixed prefix: version, flags, count.
const artifactHeader = 4 + 1 + 4

// EncodeArtifact implements core.ArtifactCodec. It serializes the
// front half of every function of a module this engine family
// compiled, re-derived from the module's code; foreign module types
// return core.ErrNoArtifact. It touches no compile counter.
func (e *Engine) EncodeArtifact(cm core.CompiledModule) ([]byte, error) {
	tm, ok := cm.(*Module)
	if !ok {
		return nil, core.ErrNoArtifact
	}
	le := binary.LittleEndian
	b := le.AppendUint32(nil, artifactVersion)
	b = append(b, e.codegenFlags())
	b = le.AppendUint32(b, uint32(len(tm.funcs)))
	sc := new(scratch)
	for i := range tm.funcs {
		cf, f, _, err := e.frontHalf(tm.wasm, tm.imported, i, sc)
		if err != nil {
			return nil, fmt.Errorf("compiled: artifact function %d: %w", i, err)
		}
		b = le.AppendUint32(b, uint32(cf.frameSize))
		b = f.AppendFlat(b)
	}
	return b, nil
}

// DecodeArtifact implements core.ArtifactCodec: it rebuilds a Module
// from EncodeArtifact bytes by replaying only the post-retention
// pipeline (backHalf → emit) per function, on the same fan-out as a
// fresh compile. The source module m must be the one the artifact was
// encoded from (the cache keys by content hash); decode checks
// structural agreement and errors — treated as corruption upstream —
// on any mismatch.
func (e *Engine) DecodeArtifact(m *wasm.Module, data []byte) (core.CompiledModule, error) {
	le := binary.LittleEndian
	if len(data) < artifactHeader {
		return nil, fmt.Errorf("compiled: artifact of %d bytes", len(data))
	}
	if v := le.Uint32(data); v != artifactVersion {
		return nil, fmt.Errorf("compiled: artifact version %d, want %d", v, artifactVersion)
	}
	// Decode checks the flags, so a mis-keyed file can never silently
	// produce differently-shaped code.
	if fl := data[4]; fl != e.codegenFlags() {
		return nil, fmt.Errorf("compiled: artifact codegen flags %02b (elide, lower) do not match engine's %02b", fl, e.codegenFlags())
	}
	if n := le.Uint32(data[5:]); n != uint32(len(m.Code)) {
		return nil, fmt.Errorf("compiled: artifact has %d functions, module has %d", n, len(m.Code))
	}
	data = data[artifactHeader:]
	imported := uint32(m.NumImportedFuncs())
	funcs := make([]*cfunc, len(m.Code))
	irs := make([]*rir.Func, len(m.Code))
	for i := range funcs {
		cf, f, rest, err := readFunc(m, imported, i, data)
		if err != nil {
			return nil, fmt.Errorf("compiled: artifact function %d: %w", i, err)
		}
		funcs[i], irs[i], data = cf, f, rest
	}
	if len(data) > 0 {
		return nil, fmt.Errorf("compiled: %d bytes past the artifact's last function", len(data))
	}
	i, err := fanout.Each(len(funcs), func() func(int) error {
		sc := new(scratch)
		return func(i int) error { return funcs[i].emit(e.backHalf(irs[i], sc)) }
	})
	if err != nil {
		return nil, fmt.Errorf("compiled: artifact function %d: %w", i, err)
	}
	return &Module{engine: e, wasm: m, funcs: funcs, imported: imported}, nil
}

// readFunc reads m.Code[i]'s function — its frame size and flat stream
// — from the start of data and returns the bytes after it.
func readFunc(m *wasm.Module, imported uint32, i int, data []byte) (*cfunc, *rir.Func, []byte, error) {
	index := imported + uint32(i)
	typ, err := m.FuncTypeAt(index)
	if err != nil {
		return nil, nil, nil, err
	}
	if len(data) < 4 {
		return nil, nil, nil, fmt.Errorf("no frame size")
	}
	cf := &cfunc{
		name:      m.FuncNames[index],
		typ:       typ,
		numParams: len(typ.Params),
		numLocals: len(typ.Params) + len(m.Code[i].Locals),
		frameSize: int(binary.LittleEndian.Uint32(data)),
		index:     index,
	}
	f, data, err := rir.ReadFlat(data[4:], cf.frameSize)
	if err != nil {
		return nil, nil, nil, err
	}
	f.NumLocals = cf.numLocals
	return cf, f, data, nil
}

// Interface conformance.
var _ core.ArtifactCodec = (*Engine)(nil)
