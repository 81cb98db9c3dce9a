// Package alias implements the flow-insensitive may-alias analysis Clou
// applies to the S-AEG (§5.2): a points-to computation over abstract
// locations (stack allocations, globals, external/unknown), with the two
// S-AEG refinements the paper states — distinct stack allocations have
// distinct addresses, and alias facts are not trusted during transient
// execution.
//
// The analysis runs on dense indexed representations: abstract locations
// are interned into small ints at construction (external is id 0,
// followed by allocas and globals in first-appearance order), points-to
// and memory-contents sets are dataflow.BitSet words, and the fixpoint is
// a dirty-node worklist that provably evaluates the same node/state
// sequence as the naive round-robin reference (ref_test.go) with the no-op
// evaluations elided. Alias queries are answered from per-memory-node
// summaries precomputed once after the fixpoint, so MayAlias and friends
// are a few word operations instead of a fresh map resolution per call.
// All state is immutable after Analyze returns, so one Analysis may serve
// concurrent detector runs.
package alias

import (
	"math/bits"

	"lcm/internal/acfg"
	"lcm/internal/dataflow"
	"lcm/internal/ir"
)

// Loc is an abstract memory object.
type Loc struct {
	Kind LocKind
	// Node is the alloca's A-CFG node (LAlloca); Global the global's name.
	Node   int
	Global string
}

// LocKind classifies abstract locations.
type LocKind int

// Location kinds.
const (
	LAlloca LocKind = iota
	LGlobal
	LExternal // attacker-visible or unknown provenance
)

// extLoc is the interned id of the external location.
const extLoc = 0

// Analysis holds points-to results for one A-CFG.
type Analysis struct {
	g *acfg.Graph

	// locs is the interned location universe; locs[extLoc] is external.
	locs      []Loc
	words     int            // BitSet words per location set
	allocaLoc []int32        // alloca node ID → loc id (-1 otherwise)
	globalLoc map[string]int // global name → loc id

	// pts[n] is node n's points-to set (nil: not pointer-valued).
	pts []dataflow.BitSet
	// contents[l] is the set of pointer values stored into location l
	// (nil: nothing stored; never empty once allocated).
	contents []dataflow.BitSet

	globalMask dataflow.BitSet // bits of all global locs

	// sums[n] summarizes memory node n's resolved address (loads/stores).
	sums []memSummary

	// Fixpoint scratch, unused after Analyze returns.
	scratch     dataflow.BitSet
	addrScratch dataflow.BitSet
	loadersOf   [][]int32         // loc id → registered load nodes
	loaderSeen  []dataflow.BitSet // loc id → registration dedup
}

// memSummary answers the alias queries for one load/store without
// re-resolving its address: addr is the address points-to set, aliasMask
// the set of locations the address may collide with architecturally
// (addr itself, plus every global if external is present, plus external
// if any global is present), soleAlloca the unique alloca target when the
// address resolves to exactly one stack slot.
type memSummary struct {
	addr         dataflow.BitSet
	aliasMask    dataflow.BitSet
	soleAlloca   int32
	hasNonAlloca bool
	valid        bool
}

// Analyze computes points-to sets for every pointer-valued node.
func Analyze(g *acfg.Graph) *Analysis {
	a := &Analysis{g: g, globalLoc: map[string]int{}}
	a.intern()
	a.solve()
	a.summarize()
	a.scratch, a.addrScratch = nil, nil
	a.loadersOf, a.loaderSeen = nil, nil
	return a
}

// intern fixes the location universe upfront: the fixpoint only ever
// produces external, allocas present in the graph, and globals named by
// some operand, so every location can be assigned a dense id before any
// set is built.
func (a *Analysis) intern() {
	a.locs = append(a.locs, Loc{Kind: LExternal})
	a.allocaLoc = make([]int32, a.g.Len())
	for i := range a.allocaLoc {
		a.allocaLoc[i] = -1
	}
	for _, n := range a.g.Nodes {
		if n.Instr == nil {
			continue
		}
		if n.Kind == acfg.NInstr && n.Instr.Op == ir.OpAlloca {
			a.allocaLoc[n.ID] = int32(len(a.locs))
			a.locs = append(a.locs, Loc{Kind: LAlloca, Node: n.ID})
		}
		for _, arg := range n.Instr.Args {
			if gv, ok := arg.(*ir.Global); ok {
				if _, ok := a.globalLoc[gv.Nm]; !ok {
					a.globalLoc[gv.Nm] = len(a.locs)
					a.locs = append(a.locs, Loc{Kind: LGlobal, Global: gv.Nm})
				}
			}
		}
	}
	a.words = (len(a.locs) + 63) / 64
	a.globalMask = make(dataflow.BitSet, a.words)
	for nm := range a.globalLoc {
		a.globalMask.Set(a.globalLoc[nm])
	}
}

// solve runs the fixpoint. It simulates the reference round-robin
// iteration exactly — every sweep visits dirty nodes in ascending ID
// order, and a change at node i re-dirties a dependent d into the same
// sweep when d > i (the reference would see the new value later in the
// same pass) and into the next sweep otherwise — so eliding the evals
// whose inputs are unchanged (pure no-ops) yields the reference fixpoint
// even though the load rule is not monotone (a load's set gains external
// while a slot is empty and is replaced once contents arrive).
func (a *Analysis) solve() {
	n := a.g.Len()
	a.pts = make([]dataflow.BitSet, n)
	a.contents = make([]dataflow.BitSet, len(a.locs))
	a.scratch = make(dataflow.BitSet, a.words)
	a.addrScratch = make(dataflow.BitSet, a.words)
	a.loadersOf = make([][]int32, len(a.locs))
	a.loaderSeen = make([]dataflow.BitSet, len(a.locs))

	// deps[d] lists the nodes consuming d's value through some operand.
	deps := make([][]int32, n)
	for _, nd := range a.g.Nodes {
		if nd.Instr == nil {
			continue
		}
		for _, defs := range nd.ArgDefs {
			for _, d := range defs {
				deps[d] = append(deps[d], int32(nd.ID))
			}
		}
	}

	dirtyNow := dataflow.NewBitSet(n)
	dirtyNext := dataflow.NewBitSet(n)
	for id := 0; id < n; id++ {
		dirtyNow.Set(id)
	}
	cur := 0
	mark := func(d int) {
		if d > cur {
			dirtyNow.Set(d)
		} else {
			dirtyNext.Set(d)
		}
	}

	for {
		any := false
		for cur = 0; cur < n; cur++ {
			if !dirtyNow.Has(cur) {
				continue
			}
			dirtyNow.Clear(cur)
			nd := a.g.Nodes[cur]
			if nd.Kind != acfg.NInstr || nd.Instr == nil {
				continue
			}
			if a.eval(nd, a.scratch) {
				if p := a.pts[cur]; p == nil || !p.Equal(a.scratch) {
					if p == nil {
						a.pts[cur] = a.scratch.Clone()
					} else {
						copy(p, a.scratch)
					}
					for _, d := range deps[cur] {
						mark(int(d))
					}
				}
			}
			if nd.IsStore() && ir.IsPtr(nd.Instr.Args[0].Type()) {
				a.valuePts(nd, 0, a.scratch)
				a.valuePts(nd, 1, a.addrScratch)
				a.addrScratch.ForEach(func(l int) {
					if a.mergeContents(l, a.scratch) {
						for _, ld := range a.loadersOf[l] {
							mark(int(ld))
						}
					}
				})
			}
		}
		for w := range dirtyNext {
			if dirtyNext[w] != 0 {
				any = true
			}
		}
		if !any {
			return
		}
		dirtyNow, dirtyNext = dirtyNext, dirtyNow
	}
}

// eval computes the points-to set of a pointer-producing node into out,
// reporting false for nodes that produce no pointer value.
func (a *Analysis) eval(n *acfg.Node, out dataflow.BitSet) bool {
	in := n.Instr
	switch in.Op {
	case ir.OpAlloca:
		out.Reset()
		out.Set(int(a.allocaLoc[n.ID]))
		return true
	case ir.OpGEP, ir.OpFieldGEP:
		a.valuePts(n, 0, out)
		return true
	case ir.OpCast:
		if ir.IsPtr(in.Ty) {
			if in.Sub == "inttoptr" {
				out.Reset()
				out.Set(extLoc)
				return true
			}
			a.valuePts(n, 0, out)
			return true
		}
		return false
	case ir.OpLoad:
		if !ir.IsPtr(in.Ty) {
			return false
		}
		a.valuePts(n, 0, a.addrScratch)
		out.Reset()
		a.addrScratch.ForEach(func(l int) {
			if l == extLoc || a.locs[l].Kind == LGlobal {
				// Pointers loaded from globals or external memory have
				// unknown targets (the attacker does not control base
				// pointers architecturally, but their targets are
				// unconstrained).
				out.Set(extLoc)
				return
			}
			if c := a.contents[l]; c != nil {
				out.UnionInto(c)
			} else {
				out.Set(extLoc) // uninitialized slot
			}
			a.registerLoader(l, n.ID)
		})
		return true
	case ir.OpCall:
		if in.Ty != nil && ir.IsPtr(in.Ty) {
			out.Reset()
			out.Set(extLoc)
			return true
		}
		return false
	}
	return false
}

// registerLoader records that load node id observes location l's
// contents, so a later contents merge re-dirties it.
func (a *Analysis) registerLoader(l, id int) {
	seen := a.loaderSeen[l]
	if seen == nil {
		seen = dataflow.NewBitSet(a.g.Len())
		a.loaderSeen[l] = seen
	}
	if seen.Has(id) {
		return
	}
	seen.Set(id)
	a.loadersOf[l] = append(a.loadersOf[l], int32(id))
}

// valuePts resolves the points-to set of operand i of node n into out.
func (a *Analysis) valuePts(n *acfg.Node, i int, out dataflow.BitSet) {
	out.Reset()
	switch v := n.Instr.Args[i].(type) {
	case *ir.Global:
		out.Set(a.globalLoc[v.Nm])
		return
	case *ir.Const, *ir.Param:
		out.Set(extLoc)
		return
	}
	if i < len(n.ArgDefs) {
		for _, d := range n.ArgDefs[i] {
			if p := a.pts[d]; p != nil {
				out.UnionInto(p)
			}
		}
	}
	if out.Empty() {
		out.Set(extLoc)
	}
}

func (a *Analysis) mergeContents(l int, vals dataflow.BitSet) bool {
	c := a.contents[l]
	if c == nil {
		a.contents[l] = vals.Clone()
		return true
	}
	return c.UnionInto(vals)
}

// summarize resolves every memory node's address points-to set once and
// precomputes the masks the alias queries need.
func (a *Analysis) summarize() {
	a.sums = make([]memSummary, a.g.Len())
	for _, n := range a.g.Nodes {
		i := pointerOperandIndex(n)
		if i < 0 {
			continue
		}
		addr := make(dataflow.BitSet, a.words)
		a.valuePts(n, i, addr)
		s := memSummary{addr: addr, soleAlloca: -1, valid: true}
		hasExt := addr.Has(extLoc)
		hasGlobal := addr.Intersects(a.globalMask)
		s.hasNonAlloca = hasExt || hasGlobal
		mask := addr.Clone()
		if hasExt {
			mask.UnionInto(a.globalMask) // external aliases every global
		}
		if hasGlobal {
			mask.Set(extLoc) // globals alias external
		}
		s.aliasMask = mask
		if sole, ok := soleBit(addr); ok && a.locs[sole].Kind == LAlloca {
			s.soleAlloca = int32(a.locs[sole].Node)
		}
		a.sums[n.ID] = s
	}
}

// soleBit returns the unique set bit's index when exactly one bit is set.
func soleBit(s dataflow.BitSet) (int, bool) {
	idx, count := -1, 0
	for w, word := range s {
		c := bits.OnesCount64(word)
		if c == 0 {
			continue
		}
		count += c
		if count > 1 {
			return -1, false
		}
		idx = w*64 + bits.TrailingZeros64(word)
	}
	return idx, count == 1
}

// PointsTo returns the points-to set of the pointer operand i of node n,
// in interning order (external first, then first appearance). The slice
// is freshly allocated; callers may reorder it.
func (a *Analysis) PointsTo(n *acfg.Node, i int) []Loc {
	out := make(dataflow.BitSet, a.words)
	a.valuePts(n, i, out)
	var ls []Loc
	out.ForEach(func(l int) { ls = append(ls, a.locs[l]) })
	return ls
}

// pointerOperandIndex returns the address operand index of a memory node.
func pointerOperandIndex(n *acfg.Node) int {
	switch {
	case n.IsLoad():
		return 0
	case n.IsStore():
		return 1
	}
	return -1
}

// MayAlias reports whether two memory access nodes may address the same
// location architecturally: their points-to sets intersect, where External
// aliases globals and other externals but never stack allocations, and
// distinct stack allocations never alias (§5.2).
func (a *Analysis) MayAlias(m, n *acfg.Node) bool {
	p, q := &a.sums[m.ID], &a.sums[n.ID]
	if !p.valid || !q.valid {
		return false
	}
	return p.aliasMask.Intersects(q.addr)
}

// Summary returns memory node n's address location set and its alias
// mask, the locations it may collide with architecturally: MayAlias(m, n)
// holds exactly when m's mask meets n's address set. Both are nil when n
// is not a load or store; they are shared and must not be modified.
func (a *Analysis) Summary(n *acfg.Node) (addr, mask dataflow.BitSet) {
	s := &a.sums[n.ID]
	return s.addr, s.aliasMask
}

// MayAliasTransient is MayAlias without trusting resolution across
// globals: during transient execution alias facts do not hold (§5.2), so
// any two non-stack accesses may collide; distinct stack slots still have
// distinct addresses.
func (a *Analysis) MayAliasTransient(m, n *acfg.Node) bool {
	p, q := &a.sums[m.ID], &a.sums[n.ID]
	if !p.valid || !q.valid {
		return false
	}
	if p.hasNonAlloca && q.hasNonAlloca {
		return true
	}
	// Only a shared stack slot remains: external and globals never collide
	// with allocas, so intersect the addresses minus the non-alloca bits.
	for w := range p.addr {
		inter := p.addr[w] & q.addr[w]
		if w == 0 {
			inter &^= 1 // drop the external bit
		}
		inter &^= a.globalMask[w]
		if inter != 0 {
			return true
		}
	}
	return false
}

// SameAlloca reports whether both accesses certainly target the same
// single stack slot (used for store-to-load chains through spills).
func (a *Analysis) SameAlloca(m, n *acfg.Node) (int, bool) {
	p, q := &a.sums[m.ID], &a.sums[n.ID]
	if !p.valid || !q.valid || p.soleAlloca < 0 || p.soleAlloca != q.soleAlloca {
		return 0, false
	}
	return int(p.soleAlloca), true
}
