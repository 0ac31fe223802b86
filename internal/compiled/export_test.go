package compiled

import (
	"bytes"
	"fmt"
	"io"

	"leapsandbounds/internal/wasm"
)

// WriteEmitted writes everything e's uncached compile of m emits, for
// the golden test: to w, per function, every op emit receives as its
// String line and emit's per-pc class, second class, memory-access and
// elided entries; to art, the module's artifact bytes, after checking
// that they decode and re-encode to themselves.
func (e *Engine) WriteEmitted(w, art io.Writer, m *wasm.Module) error {
	imported := uint32(m.NumImportedFuncs())
	for i := range m.Code {
		cf, f, err := e.lowerFunc(m, imported, i)
		if err != nil {
			return err
		}
		if err := cf.emit(f); err != nil {
			return err
		}
		fmt.Fprintf(w, "func %d %q locals=%d frame=%d\n", i, cf.name, cf.numLocals, cf.frameSize)
		for pc := range f.Code {
			fmt.Fprintf(w, "%d %s\n", pc, f.Code[pc].String(f))
		}
		fmt.Fprintf(w, "classes %v\nclasses2 %v\nmemAcc %v\nelided %v\n", cf.classes, cf.classes2, cf.memAcc, cf.elided)
	}
	cm, err := e.compileModule(m)
	if err != nil {
		return err
	}
	data, err := e.EncodeArtifact(cm)
	if err != nil {
		return err
	}
	dm, err := e.DecodeArtifact(m, data)
	if err != nil {
		return fmt.Errorf("artifact decode: %w", err)
	}
	if re, err := e.EncodeArtifact(dm); err != nil || !bytes.Equal(re, data) {
		return fmt.Errorf("the decoded artifact re-encodes differently (%v)", err)
	}
	_, err = art.Write(data)
	return err
}
