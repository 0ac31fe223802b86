package interp

import (
	"fmt"

	"leapsandbounds/internal/flatten"
	"leapsandbounds/internal/wasm"
)

// The interpreter's private opcodes: fused forms that fold a constant
// or a local operand into the instruction that consumes it, the way
// wasm3's compiler turns locals and constants into slot and immediate
// operands. The set is what dynamic frequency over every registered
// workload ranks highest: local.get and i32.const are nearly half of
// what the unfused streams execute. They take the unused opcode space
// from 0xC5 up, above the sign-extension ops, and exist only in the
// plain streams fold writes; the validator accepts none of them
// (TestPrivateOpcodesAreInvalid).
//
// Operand fields, by suffix: I reads an immediate from A; L reads the
// local A; LI reads the local A and the immediate B; LL the locals A
// and B. ToL writes the result to the local A instead of the stack.
const (
	// s[top] = s[top] op A
	opI32AddI wasm.Opcode = 0xc5 + iota
	opI32SubI
	opI32MulI
	opI32ShlI
	opI32AndI
	opI64AddI
	opI64MulI
	// push l[A] op B
	opI32AddLI
	opI32SubLI
	opI32MulLI
	opI32ShlLI
	opI32AndLI
	opI64AddLI
	opI64MulLI
	// s[top] = s[top] op l[A]
	opI32AddL
	opI64AddL
	// l[A] = s[top-1] op s[top], both popped
	opI32AddToL
	opI64AddToL
	// l[A] = l[A] + B: local.get x; const; add; local.set x
	opI32IncL
	opI64IncL
	// push l[A], then l[B]; push l[A], then B; l[A] = pop, then push l[B]
	opGetGet
	opGetConst
	opSetGet
	// i32 compare and branch: pop the operands, jump to Tgt when the
	// comparison holds. The operands are s[top-1] and s[top] (no
	// suffix), s[top] and A (I), l[A] and B (LI), l[A] and l[B] (LL).
	opBrEq
	opBrNe
	opBrLtS
	opBrGeS
	opBrLtU
	opBrGeU
	opBrEqI
	opBrNeI
	opBrLtSI
	opBrGeSI
	opBrLtUI
	opBrGeUI
	opBrEqLI
	opBrNeLI
	opBrLtSLI
	opBrGeSLI
	opBrLtULI
	opBrGeULI
	opBrEqLL
	opBrNeLL
	opBrLtSLL
	opBrGeSLL
	opBrLtULL
	opBrGeULL
	opPrivateEnd // one past the last private opcode
)

// binForms holds, per integer binop, its fused forms (0: none).
var binForms = [256]struct{ i, li, l, toL, incL wasm.Opcode }{
	wasm.OpI32Add: {opI32AddI, opI32AddLI, opI32AddL, opI32AddToL, opI32IncL},
	wasm.OpI32Sub: {i: opI32SubI, li: opI32SubLI},
	wasm.OpI32Mul: {i: opI32MulI, li: opI32MulLI},
	wasm.OpI32Shl: {i: opI32ShlI, li: opI32ShlLI},
	wasm.OpI32And: {i: opI32AndI, li: opI32AndLI},
	wasm.OpI64Add: {opI64AddI, opI64AddLI, opI64AddL, opI64AddToL, opI64IncL},
	wasm.OpI64Mul: {i: opI64MulI, li: opI64MulLI},
}

// opensWindow holds the opcodes a window can start with.
var opensWindow = func() (t [256]bool) {
	for _, op := range []wasm.Opcode{wasm.OpLocalGet, wasm.OpLocalSet, wasm.OpI32Const, wasm.OpI64Const, wasm.OpI32Eqz} {
		t[op] = true
	}
	for op := range t {
		t[op] = t[op] || binForms[op].toL != 0 || brForms[op][formSS] != 0
	}
	return t
}()

// Operand forms of a compare-and-branch, indexing brForms' rows.
const (
	formSS = iota
	formI
	formLI
	formLL
)

// brForms holds, per i32 comparison, its compare-and-branch opcodes;
// negated is the comparison that holds exactly when it does not, for
// folding a comparison into an if (which jumps when it fails).
var (
	brForms = [256][4]wasm.Opcode{
		wasm.OpI32Eq:  {opBrEq, opBrEqI, opBrEqLI, opBrEqLL},
		wasm.OpI32Ne:  {opBrNe, opBrNeI, opBrNeLI, opBrNeLL},
		wasm.OpI32LtS: {opBrLtS, opBrLtSI, opBrLtSLI, opBrLtSLL},
		wasm.OpI32GeS: {opBrGeS, opBrGeSI, opBrGeSLI, opBrGeSLL},
		wasm.OpI32LtU: {opBrLtU, opBrLtUI, opBrLtULI, opBrLtULL},
		wasm.OpI32GeU: {opBrGeU, opBrGeUI, opBrGeULI, opBrGeULL},
	}
	negated = [256]wasm.Opcode{
		wasm.OpI32Eq: wasm.OpI32Ne, wasm.OpI32Ne: wasm.OpI32Eq,
		wasm.OpI32LtS: wasm.OpI32GeS, wasm.OpI32GeS: wasm.OpI32LtS,
		wasm.OpI32LtU: wasm.OpI32GeU, wasm.OpI32GeU: wasm.OpI32LtU,
	}
)

// fold is the interpreter's compile pass over one flattened function,
// run on fanout's worker right after flatten.Flatten. In one forward
// pass it
//
//   - proves the frame: every local index is below NumLocals, every
//     instruction's static height H, minus what it pops and plus what
//     it pushes, stays in [0, MaxStack], fallthrough and every branch
//     arrive at the height their target was flattened at, and no
//     instruction falls off the end. Then the operand-stack pointer
//     exec tracks equals opBase+H at every instruction, and every slot
//     exec addresses lies in the NumLocals+MaxStack slots ensureStack
//     gives a frame, which is what lets exec address them unchecked.
//     The br_tables' ranges of pf.Targets are not empty and tile it in
//     stream order, so exec indexes the table unchecked too, and each
//     entry is one br_table's. A violation is a compile error.
//   - with fuse set, rewrites pf.Code in place, replacing each window
//     of adjacent instructions that a private opcode covers with that
//     opcode. A window is one or two pure producers (constants and
//     local.gets) in front of the instruction that consumes them, an
//     add in front of the local.set that consumes it, a comparison in
//     front of the br_if or if that consumes it, or a local.set and
//     the local.get after it. No window reaches across a branch
//     target: only its first instruction may be one, so every branch
//     still has an instruction to land on. No window moves a trap:
//     none of its instructions can trap.
//
// The instrumented streams are proved and not fused.
//
// fold's one table is an index slice, in the caller's buffer buf: the
// new position of every old instruction, followed by the new positions
// of the branches (at most one per instruction), which the last step,
// the only one that touches a branch's target, remaps, together with
// every side-table entry.
func fold(pf *flatten.Func, fuse bool, buf *[]int32) error {
	code := pf.Code
	n := len(code)
	if cap(*buf) < 2*n {
		*buf = make([]int32, 0, 2*n)
	}
	idx := append((*buf)[:0], make([]int32, n)...)
	p := prover{numLocals: uint64(pf.NumLocals), maxStack: int32(pf.MaxStack), n: int32(n), targets: pf.Targets}
	j := 0
	for i := 0; i < n; {
		f := fusion{w: 1}
		if fuse && opensWindow[code[i].Op] {
			f = window(code, i)
		}
		for k := i; k < i+f.w; k++ {
			if err := p.check(&code[k]); err != nil {
				return fmt.Errorf("pc %d (%s): %w", k, code[k].Op, err)
			}
			idx[k] = int32(j)
		}
		switch {
		case f.w > 1:
			first := &code[i]
			in := flatten.Instr{Op: f.op, A: f.a, B: f.b, H: first.H, Mark: first.Mark}
			if f.br != nil {
				in.Tgt, in.PopTo = f.br.Tgt, f.br.H-1
			}
			code[j] = in
		case j < i:
			code[j] = code[i]
		}
		if f.br != nil || f.w == 1 && p.kind >= kindIfFalse && p.kind < kindBrTable {
			idx = append(idx, int32(j))
		}
		i += f.w
		j++
	}
	if p.falls {
		return fmt.Errorf("the last instruction falls off the end")
	}
	if len(p.targets) > 0 {
		return fmt.Errorf("%d br_table entries past the last br_table", len(p.targets))
	}
	remap := func(old, height int32) (int32, error) {
		t := idx[old]
		if old > 0 && idx[old-1] == t {
			return 0, fmt.Errorf("branch into the middle of fused pc %d", t)
		}
		if h := code[t].H; h != height {
			return 0, fmt.Errorf("branch to height %d lands at height %d", height, h)
		}
		return t, nil
	}
	var err error
	targets := pf.Targets
	for k := range targets {
		e := &targets[k]
		if e.Tgt, err = remap(e.Tgt, e.PopTo+int32(e.Arity)); err != nil {
			return fmt.Errorf("br_table entry %d: %w", k, err)
		}
	}
	for _, b := range idx[n:] {
		in := &code[b]
		switch {
		case in.Op == flatten.OpIfFalse:
			in.Tgt, err = remap(in.Tgt, in.H-1)
		case in.Op >= opBrEq: // a fused compare-and-branch
			in.Tgt, err = remap(in.Tgt, in.PopTo)
		default:
			in.Tgt, err = remap(in.Tgt, in.PopTo+int32(in.Arity))
		}
		if err != nil {
			return fmt.Errorf("pc %d (%s): %w", b, in.Op, err)
		}
	}
	pf.Code = code[:j]
	return nil
}

// peek returns code[i+k] when it exists and no branch lands on it, so
// that it can join a window that starts at i.
func peek(code []flatten.Instr, i, k int) *flatten.Instr {
	if i+k < len(code) && !code[i+k].Mark.Target() {
		return &code[i+k]
	}
	return nil
}

// A fusion is what replaces a window of w instructions: a private
// opcode with its operands, and for a compare-and-branch the window's
// branch, whose target it takes.
type fusion struct {
	op   wasm.Opcode
	a, b uint64
	br   *flatten.Instr
	w    int // 1: nothing fused
}

// window returns the fusion for the window starting at code[i], an
// instruction that opensWindow holds.
func window(code []flatten.Instr, i int) fusion {
	in := &code[i]
	a := peek(code, i, 1)
	if a == nil {
		return fusion{w: 1}
	}
	switch op := in.Op; {
	case op == wasm.OpLocalGet:
		b := peek(code, i, 2)
		switch {
		case isIntConst(a.Op) && b != nil:
			c := peek(code, i, 3)
			if br := branchForm(b.Op, c, formLI); br != 0 {
				return fusion{br, in.A, a.A, c, 4}
			}
			if f := binForms[b.Op]; f.incL != 0 && c != nil && c.Op == wasm.OpLocalSet && c.A == in.A {
				return fusion{f.incL, in.A, a.A, nil, 4}
			} else if f.li != 0 {
				return fusion{f.li, in.A, a.A, nil, 3}
			}
			return fusion{opGetConst, in.A, a.A, nil, 2}
		case a.Op == wasm.OpLocalGet:
			if b != nil {
				c := peek(code, i, 3)
				if br := branchForm(b.Op, c, formLL); br != 0 {
					return fusion{br, in.A, a.A, c, 4}
				}
			}
			return fusion{opGetGet, in.A, a.A, nil, 2}
		case a.Op >= wasm.OpI32Const && a.Op <= wasm.OpF64Const:
			return fusion{opGetConst, in.A, a.A, nil, 2}
		case binForms[a.Op].l != 0:
			return fusion{binForms[a.Op].l, in.A, 0, nil, 2}
		}
	case isIntConst(op):
		b := peek(code, i, 2)
		if br := branchForm(a.Op, b, formI); br != 0 {
			return fusion{br, in.A, 0, b, 3}
		}
		if f := binForms[a.Op].i; f != 0 {
			return fusion{f, in.A, 0, nil, 2}
		}
	case op == wasm.OpI32Eqz: // i32.eqz is i32.eq against 0
		if br := branchForm(wasm.OpI32Eq, a, formI); br != 0 {
			return fusion{br, 0, 0, a, 2}
		}
	case op == wasm.OpLocalSet:
		if a.Op == wasm.OpLocalGet {
			return fusion{opSetGet, in.A, a.A, nil, 2}
		}
	case brForms[op][formSS] != 0:
		if br := branchForm(op, a, formSS); br != 0 {
			return fusion{br, 0, 0, a, 2}
		}
	case binForms[op].toL != 0:
		if a.Op == wasm.OpLocalSet {
			return fusion{binForms[op].toL, a.A, 0, nil, 2}
		}
	}
	return fusion{w: 1}
}

func isIntConst(op wasm.Opcode) bool { return op == wasm.OpI32Const || op == wasm.OpI64Const }

// branchForm returns the compare-and-branch opcode in the given
// operand form for comparison cmp followed by br, or 0 when br is not
// a branch that consumes the comparison: a br_if that carries no
// value and unwinds nothing, or an if.
func branchForm(cmp wasm.Opcode, br *flatten.Instr, form int) wasm.Opcode {
	if br == nil {
		return 0
	}
	switch br.Op {
	case flatten.OpBranchIf:
		if br.Arity != 0 || br.PopTo != br.H-1 {
			return 0
		}
	case flatten.OpIfFalse:
		cmp = negated[cmp]
	default:
		return 0
	}
	return brForms[cmp][form]
}

// prover carries fold's proof from one instruction to the next.
type prover struct {
	numLocals uint64
	maxStack  int32
	n         int32                  // instructions in the function
	targets   []flatten.BranchTarget // the side table past the entries br_tables took
	used      uint64                 // the entries br_tables took
	next      int32                  // the height fallthrough arrives at
	falls     bool                   // whether the previous instruction falls through
	kind      uint8                  // the previous instruction's kind
}

// How check treats an unfused opcode, beyond its fixed pops and
// pushes. The kinds from kindIfFalse to kindBrTable are the branches,
// and those from kindJump on do not fall through.
const (
	kindInvalid uint8 = iota // not in flatten's output
	kindPlain
	kindLocal // reads or writes the local A
	kindPrefix
	kindCall // pops down to PopTo, pushes Arity
	kindCallIndirect
	kindIfFalse
	kindBranchIf
	kindJump
	kindBrTable
	kindReturn
	kindUnreachable
)

// opInfo is an unfused opcode's stack effect and kind.
type opInfo struct {
	pops, pushes int8
	kind         uint8
}

var opInfos = func() (t [256]opInfo) {
	for op := range t {
		o := wasm.Opcode(op)
		if _, delta, ok := flatten.Classify(o); ok {
			if o.IsStore() {
				t[op] = opInfo{2, 0, kindPlain}
			} else {
				t[op] = opInfo{int8(1 - delta), 1, kindPlain}
			}
		}
	}
	set := func(info opInfo, ops ...wasm.Opcode) {
		for _, o := range ops {
			t[o] = info
		}
	}
	set(opInfo{0, 1, kindPlain}, wasm.OpGlobalGet, wasm.OpMemorySize,
		wasm.OpI32Const, wasm.OpI64Const, wasm.OpF32Const, wasm.OpF64Const)
	set(opInfo{1, 0, kindPlain}, wasm.OpDrop, wasm.OpGlobalSet)
	set(opInfo{1, 1, kindPlain}, wasm.OpMemoryGrow)
	set(opInfo{3, 1, kindPlain}, wasm.OpSelect)
	set(opInfo{0, 1, kindLocal}, wasm.OpLocalGet)
	set(opInfo{1, 0, kindLocal}, wasm.OpLocalSet)
	set(opInfo{1, 1, kindLocal}, wasm.OpLocalTee)
	set(opInfo{1, 1, kindPrefix}, wasm.OpPrefix) // memory.copy, memory.fill: 3, 0
	set(opInfo{kind: kindCall}, wasm.OpCall)
	set(opInfo{kind: kindCallIndirect}, wasm.OpCallIndirect)
	set(opInfo{1, 0, kindIfFalse}, flatten.OpIfFalse)
	set(opInfo{1, 0, kindBranchIf}, flatten.OpBranchIf)
	set(opInfo{0, 0, kindJump}, flatten.OpJump)
	set(opInfo{1, 0, kindBrTable}, wasm.OpBrTable)
	set(opInfo{0, 0, kindReturn}, flatten.OpReturnEnd)
	set(opInfo{0, 0, kindUnreachable}, wasm.OpUnreachable)
	return t
}()

// check proves one unfused instruction (see fold).
func (p *prover) check(in *flatten.Instr) error {
	h := in.H
	info := opInfos[in.Op]
	pops, pushes := int32(info.pops), int32(info.pushes)
	p.kind = info.kind
	switch info.kind {
	case kindPlain:
	case kindInvalid:
		return fmt.Errorf("not an opcode flatten emits")
	case kindLocal:
		if in.A >= p.numLocals {
			return fmt.Errorf("local %d of %d", in.A, p.numLocals)
		}
	case kindPrefix:
		if sub := wasm.SubOpcode(in.Sub); sub == wasm.SubMemoryCopy || sub == wasm.SubMemoryFill {
			pops, pushes = 3, 0
		}
	case kindCall, kindCallIndirect:
		// pops the arguments, and call_indirect the table index, down
		// to PopTo
		pops, pushes = h-in.PopTo, int32(in.Arity)
		if in.Arity < 0 || in.Arity > 1 || info.kind == kindCallIndirect && pops < 1 {
			return fmt.Errorf("pops to %d from %d and pushes %d", in.PopTo, h, in.Arity)
		}
	case kindIfFalse:
		if err := p.target(in.Tgt, 0, 0, 0); err != nil {
			return err
		}
	case kindBranchIf, kindJump:
		if err := p.target(in.Tgt, in.PopTo, in.Arity, h-pops); err != nil {
			return err
		}
	case kindBrTable:
		// Its entries are the table's next B, at least one.
		rest := p.targets
		if in.B == 0 || in.A != p.used || in.B > uint64(len(rest)) {
			return fmt.Errorf("br_table entries [%d, %d+%d) of %d, the next one %d", in.A, in.A, in.B, p.used+uint64(len(rest)), p.used)
		}
		for _, e := range rest[:in.B] {
			if err := p.target(e.Tgt, e.PopTo, e.Arity, h-pops); err != nil {
				return err
			}
		}
		p.targets, p.used = rest[in.B:], p.used+in.B
	case kindReturn:
		if in.Arity < 0 || in.Arity > 1 || int32(in.Arity) > h {
			return fmt.Errorf("returns %d results from height %d", in.Arity, h)
		}
	}
	if p.falls && h != p.next {
		return fmt.Errorf("height %d, fallthrough arrives at %d", h, p.next)
	}
	if pops < 0 || pops > h || h-pops+pushes > p.maxStack {
		return fmt.Errorf("height %d pops %d and pushes %d: outside [0, %d]", h, pops, pushes, p.maxStack)
	}
	p.next, p.falls = h-pops+pushes, info.kind < kindJump
	return nil
}

// target proves a branch edge that keeps the slots [popTo, popTo+arity)
// of the top's slots, the carried value taken from below top: the
// target is an instruction, and the carried values lie on the stack.
// Whether the target was flattened at popTo+arity, fold's remap
// proves.
func (p *prover) target(tgt, popTo int32, arity int8, top int32) error {
	if tgt < 0 || tgt >= p.n {
		return fmt.Errorf("branch target %d of %d", tgt, p.n)
	}
	if popTo < 0 || arity < 0 || arity > 1 || popTo+int32(arity) > top {
		return fmt.Errorf("branch keeps [%d, %d+%d) of %d slots", popTo, popTo, arity, top)
	}
	return nil
}
