// Serializable compiled-module artifacts for the disk cache tier.
//
// The compiled engine's final form is a closure graph (cops), which
// cannot round-trip through bytes. What can is the stage immediately
// before closures appear: the register-IR instruction stream after
// rir.Lower (or after rir.Compact for the non-lowering engine) and
// before the elision pass — every field of rir.Inst at that point is
// plain data. An artifact is therefore that per-function IR plus
// frame metadata; decoding replays only the cheap back half of the
// pipeline (elide → FuseMem → emit), never validation, flattening,
// building, optimization, or lowering — the passes that dominate
// compile time.
//
// rir.Inst cannot be gob-encoded directly: its elision payloads
// (CheckPlan's LoopRange.Expr) are func-typed, and gob rejects any
// type that reaches a func field even when the pointer is nil. The
// artifact mirrors the pure-data fields into its own instruction
// struct; encoding refuses any instruction carrying post-elision
// state, which pins the clone point at compile time.
package compiled

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"leapsandbounds/internal/core"
	"leapsandbounds/internal/fanout"
	"leapsandbounds/internal/flatten"
	"leapsandbounds/internal/isa"
	"leapsandbounds/internal/rir"
	"leapsandbounds/internal/wasm"
)

// artifactVersion guards the gob payload: its shape (ainst, afunc,
// artifact) and what the front half puts in it. Bump on any change to
// either; a version mismatch decodes as corruption and the disk tier
// recompiles. Version 2: Optimize forwards every retargetable producer
// into its local.set and folds eqz into compare+branch, so the IR a
// version-1 file holds is no longer what compileFunc would retain.
const artifactVersion = 2

// ainst mirrors the pure-data fields of rir.Inst (everything the
// pre-elision pipeline writes). Post-elision fields (Unchecked, Chk,
// Addr, Pair, HasElse/Else) are deliberately absent: they are
// reconstructed by the decode-side elide/FuseMem replay.
type ainst struct {
	Op       wasm.Opcode
	Sub      wasm.SubOpcode
	Shape    rir.Shape
	Dst      int
	A, B, C  int
	AImm     bool
	BImm     bool
	ImmA     uint64
	ImmB     uint64
	Off      uint64
	Tgt      int32
	CarrySrc int
	CarryDst int
	Table    []flatten.BranchTarget
	Fidx     uint32
	ArgBase  int
	NArgs    int8
	Results  int8
	CmpOp    wasm.Opcode
	BrOnTrue bool
	Class    isa.OpClass
	MemAcc   bool
	Dead     bool
	Pure     bool
}

// afunc is one function's artifact.
type afunc struct {
	Name      string
	Type      wasm.FuncType
	NumParams int
	NumLocals int
	FrameSize int
	IR        []ainst
}

// artifact is the gob payload: the module's functions plus the
// codegen flags they were built under (checked at decode so a
// mis-keyed file can never silently produce differently-shaped code).
type artifact struct {
	Version  int
	Optimize bool
	Elision  bool
	Lowered  bool
	Funcs    []afunc
}

// toArtifactIR converts pre-elision IR, refusing instructions that
// carry post-elision state (a non-nil CheckPlan, a folded address, a
// fused pair, a threaded jump or the unchecked flag means the caller
// cloned after the wrong pass).
func toArtifactIR(ir []rir.Inst) ([]ainst, error) {
	out := make([]ainst, len(ir))
	for i := range ir {
		s := &ir[i]
		if s.Unchecked || s.Chk != nil || s.Addr != nil || s.Pair != nil || s.HasElse {
			return nil, fmt.Errorf("compiled: instruction %d carries post-elision state", i)
		}
		out[i] = ainst{
			Op: s.Op, Sub: s.Sub, Shape: s.Shape,
			Dst: s.Dst, A: s.A, B: s.B, C: s.C,
			AImm: s.AImm, BImm: s.BImm, ImmA: s.ImmA, ImmB: s.ImmB,
			Off: s.Off, Tgt: s.Tgt,
			CarrySrc: s.CarrySrc, CarryDst: s.CarryDst,
			Table: s.Table,
			Fidx:  s.Fidx, ArgBase: s.ArgBase, NArgs: s.NArgs, Results: s.Results,
			CmpOp: s.CmpOp, BrOnTrue: s.BrOnTrue,
			Class: s.Class, MemAcc: s.MemAcc, Dead: s.Dead, Pure: s.Pure,
		}
	}
	return out, nil
}

// fromArtifactIR rebuilds the rir stream.
func fromArtifactIR(in []ainst) []rir.Inst {
	out := make([]rir.Inst, len(in))
	for i := range in {
		s := &in[i]
		out[i] = rir.Inst{
			Op: s.Op, Sub: s.Sub, Shape: s.Shape,
			Dst: s.Dst, A: s.A, B: s.B, C: s.C,
			AImm: s.AImm, BImm: s.BImm, ImmA: s.ImmA, ImmB: s.ImmB,
			Off: s.Off, Tgt: s.Tgt,
			CarrySrc: s.CarrySrc, CarryDst: s.CarryDst,
			Table: s.Table,
			Fidx:  s.Fidx, ArgBase: s.ArgBase, NArgs: s.NArgs, Results: s.Results,
			CmpOp: s.CmpOp, BrOnTrue: s.BrOnTrue,
			Class: s.Class, MemAcc: s.MemAcc, Dead: s.Dead, Pure: s.Pure,
		}
	}
	return out
}

// EncodeArtifact implements core.ArtifactCodec. It serializes the
// retained pre-elision IR of a module this engine family compiled;
// foreign module types (or modules from before IR retention) return
// core.ErrNoArtifact.
func (e *Engine) EncodeArtifact(cm core.CompiledModule) ([]byte, error) {
	tm, ok := cm.(*Module)
	if !ok {
		return nil, core.ErrNoArtifact
	}
	art := artifact{
		Version:  artifactVersion,
		Optimize: e.optimize,
		Elision:  e.elision(),
		Lowered:  e.registerIR(),
	}
	for _, cf := range tm.funcs {
		if cf.preIR == nil && len(cf.code) > 0 {
			return nil, core.ErrNoArtifact
		}
		ir, err := toArtifactIR(cf.preIR)
		if err != nil {
			return nil, err
		}
		art.Funcs = append(art.Funcs, afunc{
			Name:      cf.name,
			Type:      cf.typ,
			NumParams: cf.numParams,
			NumLocals: cf.numLocals,
			FrameSize: cf.frameSize,
			IR:        ir,
		})
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&art); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeArtifact implements core.ArtifactCodec: it rebuilds a Module
// from EncodeArtifact bytes by replaying only the post-retention
// pipeline (backHalf → emit) per function, on the same fan-out as a
// fresh compile. The source module m must be the one the artifact was
// encoded from (the cache keys by content hash); decode validates
// structural agreement and errors — treated as corruption upstream —
// on any mismatch.
func (e *Engine) DecodeArtifact(m *wasm.Module, data []byte) (core.CompiledModule, error) {
	var art artifact
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&art); err != nil {
		return nil, fmt.Errorf("compiled: artifact decode: %w", err)
	}
	if art.Version != artifactVersion {
		return nil, fmt.Errorf("compiled: artifact version %d, want %d", art.Version, artifactVersion)
	}
	if art.Optimize != e.optimize || art.Elision != e.elision() || art.Lowered != e.registerIR() {
		return nil, fmt.Errorf("compiled: artifact codegen flags (opt=%v elide=%v rir=%v) do not match engine (opt=%v elide=%v rir=%v)",
			art.Optimize, art.Elision, art.Lowered, e.optimize, e.elision(), e.registerIR())
	}
	if len(art.Funcs) != len(m.Code) {
		return nil, fmt.Errorf("compiled: artifact has %d functions, module has %d", len(art.Funcs), len(m.Code))
	}
	imported := uint32(m.NumImportedFuncs())
	funcs, i, err := fanout.Map(len(art.Funcs), func(i int) (*cfunc, error) {
		af := &art.Funcs[i]
		cf := &cfunc{
			name:      af.Name,
			typ:       af.Type,
			numParams: af.NumParams,
			numLocals: af.NumLocals,
			frameSize: af.FrameSize,
			index:     imported + uint32(i),
			preIR:     fromArtifactIR(af.IR),
		}
		return cf, cf.emit(e.backHalf(cf))
	})
	if err != nil {
		return nil, fmt.Errorf("compiled: artifact function %d: %w", i, err)
	}
	return &Module{engine: e, wasm: m, funcs: funcs, imported: imported}, nil
}

// Interface conformance.
var _ core.ArtifactCodec = (*Engine)(nil)
