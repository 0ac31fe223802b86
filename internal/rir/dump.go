package rir

import (
	"fmt"
	"io"
	"strings"
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

// String renders one instruction in a compact assembly-like form.
// numLocals fixes the local/register split for operand names.
func (s *Inst) String(numLocals int) string {
	r := func(slot int) string { return reg(slot, numLocals) }
	opA := func() string { return operand(s.A, s.AImm, s.ImmA, numLocals) }
	opB := func() string { return operand(s.B, s.BImm, s.ImmB, numLocals) }
	switch s.Shape {
	case ShConst:
		return fmt.Sprintf("%s = const %#x", r(s.Dst), s.ImmA)
	case ShMove:
		return fmt.Sprintf("%s = %s", r(s.Dst), r(s.A))
	case ShUn:
		return fmt.Sprintf("%s = %s %s", r(s.Dst), s.Op, r(s.A))
	case ShTruncSat:
		return fmt.Sprintf("%s = %s %s", r(s.Dst), s.Sub, r(s.A))
	case ShBin:
		return fmt.Sprintf("%s = %s %s, %s", r(s.Dst), s.Op, opA(), opB())
	case ShSelect:
		return fmt.Sprintf("%s = select %s ? %s : %s", r(s.Dst), r(s.C), r(s.A), r(s.B))
	case ShLoad:
		return fmt.Sprintf("%s = %s %s%s", r(s.Dst), s.Op, addrStr(s, numLocals), accFlags(s))
	case ShStore:
		return fmt.Sprintf("%s %s, %s%s", s.Op, addrStr(s, numLocals), opB(), accFlags(s))
	case ShJump:
		if s.CarrySrc >= 0 {
			return fmt.Sprintf("jump @%d (carry %s -> %s)", s.Tgt, r(s.CarrySrc), r(s.CarryDst))
		}
		return fmt.Sprintf("jump @%d", s.Tgt)
	case ShIfFalse:
		return fmt.Sprintf("br_if_false %s @%d", r(s.A), s.Tgt)
	case ShBranchIf:
		if s.CarrySrc >= 0 {
			return fmt.Sprintf("br_if %s @%d (carry %s -> %s)", r(s.A), s.Tgt, r(s.CarrySrc), r(s.CarryDst))
		}
		return fmt.Sprintf("br_if %s @%d", r(s.A), s.Tgt)
	case ShCmpBranch:
		sense := "if"
		if !s.BrOnTrue {
			sense = "unless"
		}
		str := fmt.Sprintf("br @%d %s %s %s, %s", s.Tgt, sense, s.CmpOp, opA(), opB())
		if s.HasElse {
			str += fmt.Sprintf(" else @%d", s.Else)
		}
		return str
	case ShBrTable:
		return fmt.Sprintf("br_table %s (%d targets)", r(s.A), len(s.Table))
	case ShReturn:
		if s.CarrySrc >= 0 {
			return fmt.Sprintf("return %s", r(s.CarrySrc))
		}
		return "return"
	case ShCall:
		return fmt.Sprintf("call f%d args@%s n=%d results=%d", s.Fidx, r(s.ArgBase), s.NArgs, s.Results)
	case ShCallInd:
		return fmt.Sprintf("call_indirect type%d idx=%s args@%s n=%d results=%d",
			s.Fidx, r(s.A), r(s.ArgBase), s.NArgs, s.Results)
	case ShGlobalGet:
		return fmt.Sprintf("%s = global %d", r(s.Dst), s.Fidx)
	case ShGlobalSet:
		return fmt.Sprintf("global %d = %s", s.Fidx, r(s.A))
	case ShMemSize:
		return fmt.Sprintf("%s = memory.size", r(s.Dst))
	case ShMemGrow:
		return fmt.Sprintf("%s = memory.grow %s", r(s.Dst), r(s.A))
	case ShMemCopy:
		return fmt.Sprintf("memory.copy %s, %s, %s", r(s.A), r(s.B), r(s.C))
	case ShMemFill:
		return fmt.Sprintf("memory.fill %s, %s, %s", r(s.A), r(s.B), r(s.C))
	case ShUnreachable:
		return "unreachable"
	case ShNop:
		return "nop"
	case ShRangeCheck:
		if s.Chk != nil && s.Chk.Ranges != nil {
			return fmt.Sprintf("range_check loop(ind=%s step=%d ranges=%d) else @%d",
				reg(s.Chk.IndSlot, numLocals), s.Chk.Step, len(s.Chk.Ranges), s.Tgt)
		}
		if s.Chk != nil {
			return fmt.Sprintf("range_check base=%s +%d len=%d write=%v else @%d",
				reg(s.Chk.BaseSlot, numLocals), s.Chk.Lo, s.Chk.N, s.Chk.Write, s.Tgt)
		}
		return fmt.Sprintf("range_check else @%d", s.Tgt)
	case ShLoadOp, ShOpStore, ShPair:
		return fmt.Sprintf("fused{%s ; %s}", s.Pair[0].String(numLocals), s.Pair[1].String(numLocals))
	case ShPairBr:
		// The targets live on the pair (Compact rewrites them there).
		br := s.Pair[1]
		br.Tgt, br.HasElse, br.Else = s.Tgt, s.HasElse, s.Else
		return fmt.Sprintf("fused{%s ; %s}", s.Pair[0].String(numLocals), br.String(numLocals))
	default:
		return fmt.Sprintf("%s?", s.Op)
	}
}

func addrStr(s *Inst, numLocals int) string {
	switch {
	case s.Addr != nil:
		l := s.Addr
		str := fmt.Sprintf("mem[%s*%d", reg(l.X, numLocals), l.CX)
		if l.CY != 0 {
			str += fmt.Sprintf("+%s*%d", reg(l.Y, numLocals), l.CY)
		}
		return fmt.Sprintf("%s+%d +%d]", str, l.K, s.Off)
	case s.AImm:
		return fmt.Sprintf("mem[abs+%d]", s.Off)
	default:
		return fmt.Sprintf("mem[%s+%d]", reg(s.A, numLocals), s.Off)
	}
}

func accFlags(s *Inst) string {
	if s.Unchecked {
		return " !unchecked"
	}
	return ""
}

// DumpSideBySide writes stack-shaped ops and the lowered register IR
// in two columns (left: pre-lowering, right: post-lowering), aligned
// top-to-bottom; the streams have different lengths so the shorter
// column just runs out.
func DumpSideBySide(w io.Writer, before, after []Inst, numLocals int) {
	n := len(before)
	if len(after) > n {
		n = len(after)
	}
	fmt.Fprintf(w, "  %-4s %-44s %-4s %s\n", "pc", "stack ops", "pc", "register IR")
	for i := 0; i < n; i++ {
		left, right := "", ""
		if i < len(before) {
			left = before[i].String(numLocals)
		}
		if i < len(after) {
			right = after[i].String(numLocals)
		}
		if len(left) > 44 {
			left = left[:41] + "..."
		}
		lpc, rpc := "", ""
		if i < len(before) {
			lpc = fmt.Sprintf("%d", i)
		}
		if i < len(after) {
			rpc = fmt.Sprintf("%d", i)
		}
		fmt.Fprintf(w, "  %-4s %-44s %-4s %s\n", lpc, left, rpc, strings.TrimRight(right, " "))
	}
}
