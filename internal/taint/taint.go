// Package taint computes attacker control over A-CFG values, Clou's filter
// for universal transmitter candidates (§5.3): all top-level function
// inputs and all non-pointer data in memory are initially assumed
// attacker-controlled; pointers stored in memory are not (the addr_gep
// assumption of §5.2 — base pointers are trusted architecturally).
package taint

import (
	"lcm/internal/acfg"
	"lcm/internal/alias"
	"lcm/internal/ir"
)

// Analysis holds per-node attacker-control facts.
type Analysis struct {
	g *acfg.Graph
	a *alias.Analysis
	// controlled[n] reports the node's result value may be steered by the
	// attacker.
	controlled map[int]bool
}

// Analyze runs the taint fixpoint.
func Analyze(g *acfg.Graph, a *alias.Analysis) *Analysis {
	t := &Analysis{g: g, a: a, controlled: make(map[int]bool)}
	// allocaTaint: stack slots whose contents may be attacker-controlled.
	allocaTaint := map[int]bool{}

	// Map each load/store to its single alloca if any (spill slots).
	slotOf := func(n *acfg.Node) (int, bool) {
		return t.a.SameAlloca(n, n)
	}

	for changed := true; changed; {
		changed = false
		for _, id := range g.Topo() {
			n := g.Nodes[id]
			if n.Kind == acfg.NHavoc {
				if !t.controlled[id] {
					t.controlled[id] = true
					changed = true
				}
				continue
			}
			if n.Kind != acfg.NInstr || n.Instr == nil {
				continue
			}
			var v bool
			switch n.Instr.Op {
			case ir.OpLoad:
				if slot, ok := slotOf(n); ok {
					v = allocaTaint[slot]
				} else {
					// Non-stack memory: non-pointer data is attacker-
					// controlled; pointers are not.
					v = !ir.IsPtr(n.Instr.Ty)
				}
			case ir.OpStore:
				if slot, ok := slotOf(n); ok {
					if t.operand(n, 0) && !allocaTaint[slot] {
						allocaTaint[slot] = true
						changed = true
					}
				}
				continue
			case ir.OpBin, ir.OpCmp, ir.OpCast, ir.OpGEP, ir.OpFieldGEP:
				for i := range n.Instr.Args {
					if t.operand(n, i) {
						v = true
					}
				}
			case ir.OpCall:
				v = true // undefined call results are attacker-influenced
			default:
				continue
			}
			if v && !t.controlled[id] {
				t.controlled[id] = true
				changed = true
			}
		}
	}
	return t
}

// operand reports whether operand i of node n carries attacker control.
func (t *Analysis) operand(n *acfg.Node, i int) bool {
	switch n.Instr.Args[i].(type) {
	case *ir.Param:
		return true // top-level function inputs are attacker-controlled
	case *ir.Const, *ir.Global:
		return false
	}
	if i < len(n.ArgDefs) {
		for _, d := range n.ArgDefs[i] {
			if t.controlled[d] {
				return true
			}
		}
	}
	return false
}

// AddressControlled reports whether the address operand of a memory access
// node is attacker-steerable.
func (t *Analysis) AddressControlled(n *acfg.Node) bool {
	idx := -1
	switch {
	case n.IsLoad():
		idx = 0
	case n.IsStore():
		idx = 1
	default:
		return false
	}
	return t.operand(n, idx)
}
