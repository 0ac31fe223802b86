package rir

import (
	"fmt"
	"io"
	"strings"

	"leapsandbounds/internal/isa"
	"leapsandbounds/internal/wasm"
)

// reg formats a register index: locals print as l<i>, virtual
// registers as r<i-numLocals>.
func reg(slot, numLocals int) string {
	if slot < numLocals {
		return fmt.Sprintf("l%d", slot)
	}
	return fmt.Sprintf("r%d", slot-numLocals)
}

// operand formats a register-or-immediate operand.
func operand(slot int, isImm bool, imm uint64, numLocals int) string {
	if isImm {
		return fmt.Sprintf("#%d", imm)
	}
	return reg(slot, numLocals)
}

// String renders one instruction of f in a compact assembly-like form
// that shows every field the emitter reads, cold payloads included:
// the operation, then in braces its cycle-model class and the flags
// that decide how it is counted and checked (mem: charges the software
// bounds check; unchecked: proven in range). f.NumLocals fixes the
// local/register split for operand names.
func (s *Inst) String(f *Func) string {
	return s.body(f) + s.annotation()
}

func (s *Inst) annotation() string {
	a := " {" + isa.OpClass(s.Class).String()
	for _, fl := range []struct {
		on   Flags
		name string
	}{{MemAcc, "mem"}, {Unchecked, "unchecked"}, {Dead, "dead"}} {
		if s.Has(fl.on) {
			a += " " + fl.name
		}
	}
	return a + "}"
}

func (s *Inst) body(f *Func) string {
	nl := f.NumLocals
	r := func(slot int32) string { return reg(int(slot), nl) }
	opA := func() string { return operand(int(s.A), s.Has(AImm), s.Imm, nl) }
	opB := func() string { return operand(int(s.B), s.Has(BImm), f.ImmB(s), nl) }
	switch s.Shape {
	case ShConst:
		return fmt.Sprintf("%s = const %#x", r(s.Dst), s.Imm)
	case ShMove:
		return fmt.Sprintf("%s = %s", r(s.Dst), r(s.A))
	case ShUn:
		return fmt.Sprintf("%s = %s %s", r(s.Dst), s.Op, r(s.A))
	case ShTruncSat:
		return fmt.Sprintf("%s = %s %s", r(s.Dst), wasm.SubOpcode(s.Sub), r(s.A))
	case ShBin:
		return fmt.Sprintf("%s = %s %s, %s", r(s.Dst), s.Op, opA(), opB())
	case ShSelect:
		return fmt.Sprintf("%s = select %s ? %s : %s", r(s.Dst), reg(f.C(s), nl), r(s.A), r(s.B))
	case ShLoad:
		return fmt.Sprintf("%s = %s %s", r(s.Dst), s.Op, addrStr(f, s))
	case ShStore:
		return fmt.Sprintf("%s %s, %s", s.Op, addrStr(f, s), opB())
	case ShJump:
		if src, dst := f.Carry(s); src >= 0 {
			return fmt.Sprintf("jump @%d (carry %s -> %s)", s.Tgt, reg(src, nl), reg(dst, nl))
		}
		return fmt.Sprintf("jump @%d", s.Tgt)
	case ShIfFalse:
		return fmt.Sprintf("br_if_false %s @%d", r(s.A), s.Tgt)
	case ShBranchIf:
		if src, dst := f.Carry(s); src >= 0 {
			return fmt.Sprintf("br_if %s @%d (carry %s -> %s)", r(s.A), s.Tgt, reg(src, nl), reg(dst, nl))
		}
		return fmt.Sprintf("br_if %s @%d", r(s.A), s.Tgt)
	case ShCmpBranch:
		sense := "if"
		if !s.Has(BrOnTrue) {
			sense = "unless"
		}
		str := fmt.Sprintf("br @%d %s %s %s, %s", s.Tgt, sense, s.CmpOp, opA(), opB())
		if s.Has(HasElse) {
			str += fmt.Sprintf(" else @%d", s.Else)
		}
		return str
	case ShBrTable:
		// A target with arity receives the carried slot at its PopTo.
		t := f.Table(s)
		tgts := make([]string, len(t.Targets))
		for i, bt := range t.Targets {
			tgts[i] = fmt.Sprintf("@%d", bt.Tgt)
			if bt.Arity > 0 {
				tgts[i] += fmt.Sprintf("->%s/%d", r(bt.PopTo), bt.Arity)
			}
		}
		return fmt.Sprintf("br_table %s carry %s [%s]", r(s.A), r(t.CarrySrc), strings.Join(tgts, ", "))
	case ShReturn:
		if src, _ := f.Carry(s); src >= 0 {
			return fmt.Sprintf("return %s", reg(src, nl))
		}
		return "return"
	case ShCall:
		c := f.Call(s)
		return fmt.Sprintf("call f%d args@%s n=%d results=%d", c.Fidx, r(c.ArgBase), c.NArgs, c.Results)
	case ShCallInd:
		c := f.Call(s)
		return fmt.Sprintf("call_indirect type%d idx=%s args@%s n=%d results=%d",
			c.Fidx, r(s.A), r(c.ArgBase), c.NArgs, c.Results)
	case ShGlobalGet:
		return fmt.Sprintf("%s = global %d", r(s.Dst), s.Imm)
	case ShGlobalSet:
		return fmt.Sprintf("global %d = %s", s.Imm, r(s.A))
	case ShMemSize:
		return fmt.Sprintf("%s = memory.size", r(s.Dst))
	case ShMemGrow:
		return fmt.Sprintf("%s = memory.grow %s", r(s.Dst), r(s.A))
	case ShMemCopy:
		return fmt.Sprintf("memory.copy %s, %s, %s", r(s.A), r(s.B), reg(f.C(s), nl))
	case ShMemFill:
		return fmt.Sprintf("memory.fill %s, %s, %s", r(s.A), r(s.B), reg(f.C(s), nl))
	case ShUnreachable:
		return "unreachable"
	case ShNop:
		return "nop"
	case ShRangeCheck:
		return checkStr(f.Check(s), nl) + fmt.Sprintf(" else @%d", s.Tgt)
	case ShLoadOp, ShOpStore, ShPair:
		p := f.Pair(s)
		return fmt.Sprintf("fused{%s ; %s}", p[0].String(f), p[1].String(f))
	case ShPairBr:
		// The targets live on the pair (Compact rewrites them there).
		p := f.Pair(s)
		br := p[1]
		br.Tgt, br.Else = s.Tgt, s.Else
		br.Flags = br.Flags&^HasElse | s.Flags&HasElse
		return fmt.Sprintf("fused{%s ; %s}", p[0].String(f), br.String(f))
	default:
		return fmt.Sprintf("%s?", s.Op)
	}
}

// checkStr renders a range check's plan: its loop's induction and
// bound, then every range as its address form, the induction's
// coefficient, +offset/width, and w for a write. The plan is data, so
// this is all of it.
func checkStr(p *CheckPlan, numLocals int) string {
	var b strings.Builder
	b.WriteString("range_check")
	limit := linStr(&p.Limit, numLocals)
	if p.Limit.IsConst() {
		limit = fmt.Sprintf("#%d", p.Limit.K)
	}
	fmt.Fprintf(&b, " loop(ind=%s limit=%s)", reg(p.IndSlot, numLocals), limit)
	rs := make([]string, len(p.Ranges))
	for i, r := range p.Ranges {
		rs[i] = fmt.Sprintf("%s +ind*%d +%d/%d", linStr(&r.Addr, numLocals), r.Ind, r.Off, r.Width)
		if r.Write {
			rs[i] += "w"
		}
	}
	fmt.Fprintf(&b, " [%s]", strings.Join(rs, ", "))
	return b.String()
}

// linStr renders a linear form, every term shown.
func linStr(l *Lin, numLocals int) string {
	return fmt.Sprintf("%s*%d+%s*%d+%d", reg(l.X, numLocals), l.CX, reg(l.Y, numLocals), l.CY, l.K)
}

func addrStr(f *Func, s *Inst) string {
	switch l := f.Addr(s); {
	case l != nil:
		return fmt.Sprintf("mem[%s +%d]", linStr(l, f.NumLocals), s.Off)
	case s.Has(AImm):
		return fmt.Sprintf("mem[abs+%d]", s.Off)
	default:
		return fmt.Sprintf("mem[%s+%d]", reg(int(s.A), f.NumLocals), s.Off)
	}
}

// DumpSideBySide writes stack-shaped ops and the lowered register IR
// in two columns (left: pre-lowering, right: post-lowering), aligned
// top-to-bottom; the streams have different lengths so the shorter
// column just runs out.
func DumpSideBySide(w io.Writer, before, after *Func) {
	n := max(len(before.Code), len(after.Code))
	fmt.Fprintf(w, "  %-4s %-44s %-4s %s\n", "pc", "stack ops", "pc", "register IR")
	for i := 0; i < n; i++ {
		left, right := "", ""
		lpc, rpc := "", ""
		if i < len(before.Code) {
			left = before.Code[i].String(before)
			lpc = fmt.Sprintf("%d", i)
		}
		if i < len(after.Code) {
			right = after.Code[i].String(after)
			rpc = fmt.Sprintf("%d", i)
		}
		if len(left) > 44 {
			left = left[:41] + "..."
		}
		fmt.Fprintf(w, "  %-4s %-44s %-4s %s\n", lpc, left, rpc, strings.TrimRight(right, " "))
	}
}
