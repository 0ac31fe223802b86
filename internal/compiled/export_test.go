package compiled

import (
	"bytes"
	"fmt"
	"io"
	"strings"

	"leapsandbounds/internal/isa"
	"leapsandbounds/internal/prof"
	"leapsandbounds/internal/wasm"
)

// Scratch is a compile worker's scratch, for tests that compile
// functions one at a time on one.
type Scratch = scratch

// NewScratch returns a fresh scratch.
func NewScratch() *Scratch { return new(scratch) }

// WriteEmitted writes everything e's uncached compile of m emits, for
// the golden test: to w, per function, what EmittedFunc returns, with
// one scratch for the whole module, as a compile worker has; to art,
// the module's artifact bytes, after checking that they decode and
// re-encode to themselves.
func (e *Engine) WriteEmitted(w, art io.Writer, m *wasm.Module) error {
	sc := NewScratch()
	for i := range m.Code {
		text, err := e.EmittedFunc(m, i, sc)
		if err != nil {
			return err
		}
		io.WriteString(w, text)
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

// EmittedFunc compiles m.Code[i] on sc and returns what emit received
// and made of it: every op as its String line, then per pc the class,
// second class, memory-access and elided entries of its account op.
func (e *Engine) EmittedFunc(m *wasm.Module, i int, sc *Scratch) (string, error) {
	cf, f, err := e.lowerFunc(m, uint32(m.NumImportedFuncs()), i, sc)
	if err != nil {
		return "", err
	}
	if err := cf.emit(f); err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "func %d %q locals=%d frame=%d\n", i, cf.name, cf.numLocals, cf.frameSize)
	for pc := range f.Code {
		fmt.Fprintf(&b, "%d %s\n", pc, f.Code[pc].String(f))
	}
	// What the account op in front of each op charges and publishes,
	// as four lists: class, second class (-1: none), checked access,
	// elided access.
	n := len(cf.code)
	classes, classes2 := make([]isa.OpClass, n), make([]isa.OpClass, n)
	memAcc, elided := make([]bool, n), make([]bool, n)
	for pc := range cf.code {
		a := cf.account(&cf.code[pc])
		classes[pc], classes2[pc] = isa.OpClass(a.a), isa.OpClass(a.b)
		memAcc[pc] = a.c&int32(prof.FlagChecked) != 0
		elided[pc] = a.c&int32(prof.FlagElided) != 0
	}
	fmt.Fprintf(&b, "classes %v\nclasses2 %v\nmemAcc %v\nelided %v\n", classes, classes2, memAcc, elided)
	return b.String(), nil
}
