package interp

import (
	"fmt"

	"leapsandbounds/internal/core"
	"leapsandbounds/internal/flatten"
	"leapsandbounds/internal/wasm"
)

// The interpreter's private opcodes are [PrivateFirst, PrivateEnd).
const PrivateFirst, PrivateEnd = opI32AddI, opPrivateEnd

// The fused local moves.
const OpGetGet, OpGetConst, OpSetGet = opGetGet, opGetConst, opSetGet

// Fused returns the private opcode of op's fused form: "I", "LI", "L",
// "ToL" or "IncL" for an integer binop, "Br", "BrI", "BrLI" or "BrLL"
// for an i32 comparison. It panics on a form op does not have.
func Fused(form string, op wasm.Opcode) wasm.Opcode {
	f := binForms[op]
	got := map[string]wasm.Opcode{
		"I": f.i, "LI": f.li, "L": f.l, "ToL": f.toL, "IncL": f.incL,
		"Br": brForms[op][formSS], "BrI": brForms[op][formI], "BrLI": brForms[op][formLI], "BrLL": brForms[op][formLL],
	}[form]
	if got == 0 {
		panic(fmt.Sprintf("%s has no fused form %q", op, form))
	}
	return got
}

// PlainOps returns the opcodes of the plain (fused) stream of the
// module-defined function fn of cm, an interpreter module.
func PlainOps(cm core.CompiledModule, fn int) []wasm.Opcode {
	var ops []wasm.Opcode
	for _, in := range cm.(*Module).funcs[fn].Code {
		ops = append(ops, in.Op)
	}
	return ops
}

// Fold is fold, for the tests that hand it a stream of their own.
func Fold(pf *flatten.Func, fuse bool, buf *[]int32) error { return fold(pf, fuse, buf) }

// AccountedFunc returns the instrumented stream of the module-defined
// function fn of cm, an interpreter module.
func AccountedFunc(cm core.CompiledModule, fn int) (*flatten.Func, error) {
	funcs, err := cm.(*Module).accountedFuncs()
	if err != nil {
		return nil, err
	}
	return funcs[fn], nil
}
