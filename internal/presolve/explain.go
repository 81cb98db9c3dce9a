package presolve

import (
	"fmt"

	"lcm/internal/acfg"
	"lcm/internal/ir"
)

// Explain renders the pre-solver's static facts bearing on one
// instruction, for human consumption (cmd/lcmlint -why): its must-alias
// class within the partition, the interval analysis's view of the address
// it touches, and its reachability under speculation. The range and
// window facts are the ones the range and window rules decide with, so
// the output reads as "what the pre-solver knows about this site".
func Explain(f *Facts, win WindowSource, in *ir.Instr) []string {
	var node *acfg.Node
	for _, n := range f.G.Nodes {
		if n.Instr == in {
			node = n
			break
		}
	}
	if node == nil {
		return []string{"no A-CFG node carries this instruction (dead, or cut during construction)"}
	}

	var out []string
	if desc, ok := f.Partition().DescribeInstr(in); ok {
		out = append(out, "alias: "+desc)
	}
	if line, ok := explainRange(f, node); ok {
		out = append(out, line)
	}
	out = append(out, explainWindow(f, win, node))
	return out
}

// explainRange renders the pruner's in-bounds decision on a memory
// access: the extent it resolved and its verdict.
func explainRange(f *Facts, node *acfg.Node) (string, bool) {
	if addrOperand(node) < 0 {
		return "", false
	}
	if f.MR == nil {
		return "range: interval facts unavailable (pruner disabled)", true
	}
	e, _ := f.MR.Extent(node.Instr)
	if !e.Addr.Known {
		return "range: address not resolvable to a base object (passes through memory or integer arithmetic)", true
	}
	line := fmt.Sprintf("range: base=%s", baseName(e.Addr))
	if e.Addr.Off.Bounded() {
		line += fmt.Sprintf(" off=[%d,%d]", e.Addr.Off.Lo, e.Addr.Off.Hi)
	} else {
		line += " off=unbounded"
	}
	line += fmt.Sprintf(" width=%d", e.Width)
	if e.Object > 0 {
		if e.InBounds() {
			line += fmt.Sprintf(" — provably inside the %d-byte object", e.Object)
		} else {
			line += fmt.Sprintf(" — may reach outside the %d-byte object", e.Object)
		}
	}
	return line, true
}

// explainWindow renders the node's speculative reachability: which
// branches can transiently fetch it, and from how close.
func explainWindow(f *Facts, win WindowSource, node *acfg.Node) string {
	if win == nil {
		return "window: geometry unavailable (no engine bound)"
	}
	count, minDist, bestB := 0, -1, -1
	for _, b := range f.G.Nodes {
		if !b.IsBranch() {
			continue
		}
		_, dist, ok := win.WindowInfo(b.ID, node.ID)
		if !ok {
			continue
		}
		count++
		if minDist < 0 || dist < minDist {
			minDist, bestB = dist, b.ID
		}
	}
	if count == 0 {
		return "window: outside every speculation window — no transient fetch can reach it"
	}
	bn := f.G.Nodes[bestB]
	return fmt.Sprintf("window: transiently fetchable under %d branch(es); min fetch distance %d from branch at line %d (node %d)",
		count, minDist, bn.Instr.Line, bestB)
}
