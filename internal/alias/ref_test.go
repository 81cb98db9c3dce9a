package alias

import (
	"lcm/internal/acfg"
	"lcm/internal/ir"
)

// RefAnalysis is the retained map-based reference implementation of the
// points-to analysis: the exact round-robin fixpoint over map[Loc]bool
// sets that shipped before the dense indexed rewrite. It exists as the
// differential oracle the dense Analysis is pinned against (see
// diff_test.go), so it lives in a test file and is compiled only into the
// package's tests — keep its semantics frozen; a behavior change here
// redefines what "correct" means for the fast path.
type RefAnalysis struct {
	g *acfg.Graph
	// pts maps a pointer-producing node to its points-to set.
	pts map[int]map[Loc]bool
	// contents maps an abstract location to the pointer values (as
	// points-to sets) stored into it.
	contents map[Loc]map[Loc]bool
}

var external = Loc{Kind: LExternal}

// AnalyzeRef computes points-to sets with the reference fixpoint.
func AnalyzeRef(g *acfg.Graph) *RefAnalysis {
	a := &RefAnalysis{
		g:        g,
		pts:      make(map[int]map[Loc]bool),
		contents: make(map[Loc]map[Loc]bool),
	}
	// Iterate to fixpoint: node points-to sets depend on memory contents
	// which depend on stores of pointer values.
	for changed := true; changed; {
		changed = false
		for _, n := range g.Nodes {
			if n.Kind != acfg.NInstr || n.Instr == nil {
				continue
			}
			set := a.eval(n)
			if set != nil && !eqSet(a.pts[n.ID], set) {
				a.pts[n.ID] = set
				changed = true
			}
			// Stores of pointer values update contents.
			if n.IsStore() && ir.IsPtr(n.Instr.Args[0].Type()) {
				vals := a.valuePts(n, 0)
				addrs := a.valuePts(n, 1)
				for l := range addrs {
					if a.mergeContents(l, vals) {
						changed = true
					}
				}
			}
		}
	}
	return a
}

// eval computes the points-to set of a pointer-producing node.
func (a *RefAnalysis) eval(n *acfg.Node) map[Loc]bool {
	in := n.Instr
	switch in.Op {
	case ir.OpAlloca:
		return set(Loc{Kind: LAlloca, Node: n.ID})
	case ir.OpGEP, ir.OpFieldGEP:
		return a.valuePts(n, 0)
	case ir.OpCast:
		if ir.IsPtr(in.Ty) {
			if in.Sub == "inttoptr" {
				return set(external)
			}
			return a.valuePts(n, 0)
		}
		return nil
	case ir.OpLoad:
		if !ir.IsPtr(in.Ty) {
			return nil
		}
		addrs := a.valuePts(n, 0)
		out := map[Loc]bool{}
		for l := range addrs {
			if l.Kind == LExternal || l.Kind == LGlobal {
				// Pointers loaded from globals or external memory have
				// unknown targets (the attacker does not control base
				// pointers architecturally, but their targets are
				// unconstrained).
				out[external] = true
				continue
			}
			for v := range a.contents[l] {
				out[v] = true
			}
			if len(a.contents[l]) == 0 {
				out[external] = true // uninitialized slot
			}
		}
		return out
	case ir.OpCall:
		if in.Ty != nil && ir.IsPtr(in.Ty) {
			return set(external)
		}
		return nil
	}
	return nil
}

// valuePts resolves the points-to set of operand i of node n.
func (a *RefAnalysis) valuePts(n *acfg.Node, i int) map[Loc]bool {
	v := n.Instr.Args[i]
	switch v := v.(type) {
	case *ir.Global:
		return set(Loc{Kind: LGlobal, Global: v.Nm})
	case *ir.Const:
		return set(external)
	case *ir.Param:
		return set(external)
	}
	out := map[Loc]bool{}
	if i < len(n.ArgDefs) {
		for _, d := range n.ArgDefs[i] {
			for l := range a.pts[d] {
				out[l] = true
			}
		}
	}
	if len(out) == 0 {
		out[external] = true
	}
	return out
}

// PointsTo returns the points-to set of the pointer operand i of node n.
func (a *RefAnalysis) PointsTo(n *acfg.Node, i int) map[Loc]bool {
	return a.valuePts(n, i)
}

// MayAlias reports whether two memory access nodes may address the same
// location architecturally: their points-to sets intersect, where External
// aliases globals and other externals but never stack allocations, and
// distinct stack allocations never alias (§5.2).
func (a *RefAnalysis) MayAlias(m, n *acfg.Node) bool {
	pi, qi := pointerOperandIndex(m), pointerOperandIndex(n)
	if pi < 0 || qi < 0 {
		return false
	}
	return locsMayAlias(a.valuePts(m, pi), a.valuePts(n, qi))
}

func locsMayAlias(p, q map[Loc]bool) bool {
	for lp := range p {
		for lq := range q {
			if locPairAlias(lp, lq) {
				return true
			}
		}
	}
	return false
}

func locPairAlias(a, b Loc) bool {
	if a.Kind == LAlloca || b.Kind == LAlloca {
		return a == b // distinct stack slots never alias, external never reaches the stack
	}
	if a.Kind == LExternal || b.Kind == LExternal {
		return true
	}
	return a == b // same global
}

// MayAliasTransient is MayAlias without trusting resolution across
// globals: during transient execution alias facts do not hold (§5.2), so
// any two non-stack accesses may collide; distinct stack slots still have
// distinct addresses.
func (a *RefAnalysis) MayAliasTransient(m, n *acfg.Node) bool {
	pi, qi := pointerOperandIndex(m), pointerOperandIndex(n)
	if pi < 0 || qi < 0 {
		return false
	}
	p, q := a.valuePts(m, pi), a.valuePts(n, qi)
	for lp := range p {
		for lq := range q {
			if lp.Kind == LAlloca || lq.Kind == LAlloca {
				if lp == lq {
					return true
				}
				continue
			}
			return true // globals/external: assume collision possible
		}
	}
	return false
}

// SameAlloca reports whether both accesses certainly target the same
// single stack slot (used for store-to-load chains through spills).
func (a *RefAnalysis) SameAlloca(m, n *acfg.Node) (int, bool) {
	pi, qi := pointerOperandIndex(m), pointerOperandIndex(n)
	if pi < 0 || qi < 0 {
		return 0, false
	}
	p, q := a.valuePts(m, pi), a.valuePts(n, qi)
	if len(p) != 1 || len(q) != 1 {
		return 0, false
	}
	var lp, lq Loc
	for l := range p {
		lp = l
	}
	for l := range q {
		lq = l
	}
	if lp.Kind == LAlloca && lp == lq {
		return lp.Node, true
	}
	return 0, false
}

func set(ls ...Loc) map[Loc]bool {
	m := make(map[Loc]bool, len(ls))
	for _, l := range ls {
		m[l] = true
	}
	return m
}

func eqSet(a, b map[Loc]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for l := range a {
		if !b[l] {
			return false
		}
	}
	return true
}

func (a *RefAnalysis) mergeContents(l Loc, vals map[Loc]bool) bool {
	c, ok := a.contents[l]
	if !ok {
		c = map[Loc]bool{}
		a.contents[l] = c
	}
	changed := false
	for v := range vals {
		if !c[v] {
			c[v] = true
			changed = true
		}
	}
	return changed
}
