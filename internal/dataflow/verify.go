package dataflow

import (
	"fmt"

	"lcm/internal/ir"
)

// VerifyModule checks every defined function (see VerifyFunc). It is run
// automatically at the end of lowering, so a bug in lower surfaces as a
// structural error instead of a wrong witness diff three layers later.
func VerifyModule(m *ir.Module) error {
	for _, f := range m.Funcs {
		if f.IsDecl() {
			continue
		}
		if err := VerifyFunc(m, f); err != nil {
			return fmt.Errorf("func @%s: %w", f.Nm, err)
		}
	}
	return nil
}

// VerifyFunc checks SSA well-formedness of one function beyond the basic
// ir.Verify pass: definitions dominate uses (via the dominator tree, not
// just block-local ordering), terminators are last and target blocks of
// the same function, phi arity and incoming blocks match predecessors,
// and operand/result types are consistent per opcode. m supplies callee
// signatures for call checking and may be nil.
func VerifyFunc(m *ir.Module, f *ir.Func) error {
	if len(f.Blocks) == 0 {
		return fmt.Errorf("no blocks")
	}
	blockIdx := map[*ir.Block]int{}
	for i, b := range f.Blocks {
		if _, dup := blockIdx[b]; dup {
			return fmt.Errorf("block %%%s appears twice", b.Nm)
		}
		blockIdx[b] = i
	}
	type pos struct{ blk, idx int }
	defPos := map[*ir.Instr]pos{}
	for i, b := range f.Blocks {
		for j, in := range b.Instrs {
			if _, dup := defPos[in]; dup {
				return fmt.Errorf("block %%%s: instruction %s appears twice", b.Nm, in)
			}
			defPos[in] = pos{i, j}
		}
	}

	g := NewFuncGraph(f)
	dom := Dominators(g, 0)

	for bi, b := range f.Blocks {
		if len(b.Instrs) == 0 {
			return fmt.Errorf("block %%%s is empty", b.Nm)
		}
		if b.Terminator() == nil {
			return fmt.Errorf("block %%%s not terminated", b.Nm)
		}
		inPhis := true
		for j, in := range b.Instrs {
			if in.Blk != b {
				return fmt.Errorf("block %%%s: %s has parent link to %v", b.Nm, in, blkName(in.Blk))
			}
			if in.IsTerminator() && j != len(b.Instrs)-1 {
				return fmt.Errorf("block %%%s: terminator %s not last", b.Nm, in)
			}
			if in.Op == ir.OpPhi {
				if !inPhis {
					return fmt.Errorf("block %%%s: phi %s after non-phi instruction", b.Nm, in)
				}
				if err := verifyPhi(g, dom, bi, b, in); err != nil {
					return err
				}
			} else {
				inPhis = false
			}
			for _, t := range branchTargets(in) {
				if t == nil {
					return fmt.Errorf("block %%%s: %s has nil target", b.Nm, in)
				}
				if _, ok := blockIdx[t]; !ok {
					return fmt.Errorf("block %%%s: %s targets foreign block %%%s", b.Nm, in, t.Nm)
				}
			}
			for _, a := range in.Args {
				def, ok := a.(*ir.Instr)
				if !ok {
					continue
				}
				dp, defined := defPos[def]
				if !defined {
					return fmt.Errorf("block %%%s: %s uses %%%s from another function", b.Nm, in, def.Nm)
				}
				if in.Op == ir.OpPhi {
					continue // checked against the incoming edge in verifyPhi
				}
				if err := checkDominance(dom, dp.blk, dp.idx, bi, j, in, def); err != nil {
					return fmt.Errorf("block %%%s: %w", b.Nm, err)
				}
			}
			if err := typeCheck(m, f, in); err != nil {
				return fmt.Errorf("block %%%s: %w", b.Nm, err)
			}
		}
	}
	return nil
}

func blkName(b *ir.Block) string {
	if b == nil {
		return "<nil>"
	}
	return "%" + b.Nm
}

func branchTargets(in *ir.Instr) []*ir.Block {
	switch in.Op {
	case ir.OpBr:
		return []*ir.Block{in.Then}
	case ir.OpCondBr:
		return []*ir.Block{in.Then, in.Else}
	}
	return nil
}

// checkDominance enforces defs-dominate-uses. Blocks unreachable from
// entry have no dominance relation; there only block-local ordering is
// checked.
func checkDominance(dom *DomTree, defBlk, defIdx, useBlk, useIdx int, use, def *ir.Instr) error {
	if defBlk == useBlk {
		if defIdx >= useIdx {
			return fmt.Errorf("%s uses %%%s before its definition", use, def.Nm)
		}
		return nil
	}
	if !dom.Reachable(useBlk) {
		return nil // dead code: no dominance relation to enforce
	}
	if !dom.StrictlyDominates(defBlk, useBlk) {
		return fmt.Errorf("%s uses %%%s whose definition does not dominate the use", use, def.Nm)
	}
	return nil
}

// verifyPhi checks a phi's shape: one argument and one incoming block per
// predecessor, incoming blocks exactly the predecessors, argument types
// matching the phi's type, and each argument's definition dominating its
// incoming edge.
func verifyPhi(g *FuncGraph, dom *DomTree, bi int, b *ir.Block, in *ir.Instr) error {
	preds := g.Preds(bi)
	if len(in.Args) != len(preds) || len(in.Incoming) != len(preds) {
		return fmt.Errorf("block %%%s: phi %s has %d args/%d incoming for %d predecessors",
			b.Nm, in, len(in.Args), len(in.Incoming), len(preds))
	}
	want := map[int]int{}
	for _, p := range preds {
		want[p]++
	}
	for i, inc := range in.Incoming {
		if inc == nil {
			return fmt.Errorf("block %%%s: phi %s has nil incoming block", b.Nm, in)
		}
		pi, ok := g.Index[inc]
		if !ok {
			return fmt.Errorf("block %%%s: phi %s incoming %%%s is not in this function", b.Nm, in, inc.Nm)
		}
		if want[pi] == 0 {
			return fmt.Errorf("block %%%s: phi %s incoming %%%s is not a predecessor", b.Nm, in, inc.Nm)
		}
		want[pi]--
		if a := in.Args[i]; a.Type() != nil && in.Ty != nil && a.Type().Size() != in.Ty.Size() {
			return fmt.Errorf("block %%%s: phi %s argument %d type %s does not match %s",
				b.Nm, in, i, a.Type(), in.Ty)
		}
		if def, ok := in.Args[i].(*ir.Instr); ok && def.Op != ir.OpAlloca {
			di, defined := g.Index[def.Blk]
			if !defined {
				return fmt.Errorf("block %%%s: phi %s argument %%%s from another function", b.Nm, in, def.Nm)
			}
			if dom.Reachable(pi) && !dom.Dominates(di, pi) {
				return fmt.Errorf("block %%%s: phi %s argument %%%s does not dominate incoming edge from %%%s",
					b.Nm, in, def.Nm, inc.Nm)
			}
		}
	}
	return nil
}

// scalar reports whether t is a type a load may return or a store may
// write: an integer or a pointer. Aggregates are addressed, never moved
// through a register.
func scalar(t ir.Type) bool { return ir.IsInt(t) || ir.IsPtr(t) }

// typeCheck enforces per-opcode operand and result typing.
func typeCheck(m *ir.Module, f *ir.Func, in *ir.Instr) error {
	switch in.Op {
	case ir.OpAlloca:
		if in.AllocaElem == nil {
			return fmt.Errorf("%s: alloca without element type", in)
		}
		if e := ir.Elem(in.Ty); e == nil || e.Size() != in.AllocaElem.Size() {
			return fmt.Errorf("%s: alloca result type is not a pointer to its slot", in)
		}
	case ir.OpLoad:
		e := ir.Elem(in.Args[0].Type())
		if e == nil {
			return fmt.Errorf("%s: load from non-pointer", in)
		}
		if !scalar(in.Ty) {
			return fmt.Errorf("%s: load of non-scalar %s", in, in.Ty)
		}
		if e.Size() != in.Ty.Size() {
			return fmt.Errorf("%s: load size mismatch (%s from %s*)", in, in.Ty, e)
		}
	case ir.OpStore:
		e := ir.Elem(in.Args[1].Type())
		if e == nil {
			return fmt.Errorf("%s: store to non-pointer", in)
		}
		if !scalar(in.Args[0].Type()) {
			return fmt.Errorf("%s: store of non-scalar %s", in, in.Args[0].Type())
		}
		if e.Size() != in.Args[0].Type().Size() {
			return fmt.Errorf("%s: store size mismatch (%s into %s*)", in, in.Args[0].Type(), e)
		}
	case ir.OpGEP:
		if !ir.IsPtr(in.Args[0].Type()) {
			return fmt.Errorf("%s: gep of non-pointer", in)
		}
		if !ir.IsInt(in.Args[1].Type()) {
			return fmt.Errorf("%s: gep index is not an integer", in)
		}
		if !ir.IsPtr(in.Ty) {
			return fmt.Errorf("%s: gep result is not a pointer", in)
		}
	case ir.OpFieldGEP:
		st, ok := ir.Elem(in.Args[0].Type()).(*ir.StructType)
		if !ok {
			return fmt.Errorf("%s: fieldgep of non-struct pointer", in)
		}
		if _, ok := st.Field(in.Field); !ok {
			return fmt.Errorf("%s: fieldgep of unknown field %q", in, in.Field)
		}
		if !ir.IsPtr(in.Ty) {
			return fmt.Errorf("%s: fieldgep result is not a pointer", in)
		}
	case ir.OpBin:
		if !ir.IsInt(in.Ty) {
			return fmt.Errorf("%s: binary op result is not an integer", in)
		}
		for i, a := range in.Args {
			if !ir.IsInt(a.Type()) || a.Type().Size() != in.Ty.Size() {
				return fmt.Errorf("%s: operand %d has type %s, want width of %s", in, i, a.Type(), in.Ty)
			}
		}
	case ir.OpCmp:
		if !ir.IsInt(in.Ty) || in.Ty.Size() != 1 {
			return fmt.Errorf("%s: cmp result is not a byte", in)
		}
		if in.Args[0].Type().Size() != in.Args[1].Type().Size() {
			return fmt.Errorf("%s: cmp operand widths differ (%s vs %s)", in, in.Args[0].Type(), in.Args[1].Type())
		}
	case ir.OpCast:
		src, dst := in.Args[0].Type(), in.Ty
		switch in.Sub {
		case "zext", "sext":
			if !ir.IsInt(src) || !ir.IsInt(dst) || dst.Size() < src.Size() {
				return fmt.Errorf("%s: %s must widen an integer", in, in.Sub)
			}
		case "trunc":
			if !ir.IsInt(src) || !ir.IsInt(dst) || dst.Size() > src.Size() {
				return fmt.Errorf("%s: trunc must narrow an integer", in)
			}
		case "ptrtoint":
			if !ir.IsPtr(src) || !ir.IsInt(dst) {
				return fmt.Errorf("%s: ptrtoint must take a pointer to an integer", in)
			}
		case "inttoptr":
			if !ir.IsInt(src) || !ir.IsPtr(dst) {
				return fmt.Errorf("%s: inttoptr must take an integer to a pointer", in)
			}
		case "bitcast":
			if src.Size() != dst.Size() {
				return fmt.Errorf("%s: bitcast changes size (%s to %s)", in, src, dst)
			}
		default:
			return fmt.Errorf("%s: unknown cast kind %q", in, in.Sub)
		}
	case ir.OpCall:
		if m != nil {
			if callee := m.Func(in.Callee); callee != nil && !callee.IsDecl() {
				if len(in.Args) != len(callee.Params) {
					return fmt.Errorf("%s: call passes %d args, @%s takes %d",
						in, len(in.Args), in.Callee, len(callee.Params))
				}
			}
		}
	case ir.OpCondBr:
		if !ir.IsInt(in.Args[0].Type()) {
			return fmt.Errorf("%s: branch condition is not an integer", in)
		}
	case ir.OpRet:
		if len(in.Args) == 1 && f.Ret != nil && f.Ret.Size() > 0 &&
			in.Args[0].Type().Size() != f.Ret.Size() {
			return fmt.Errorf("%s: return width %s does not match @%s result %s",
				in, in.Args[0].Type(), f.Nm, f.Ret)
		}
	case ir.OpFence:
		if in.Sub == "" {
			return fmt.Errorf("%s: fence without kind", in)
		}
	}
	return nil
}
