package presolve

import (
	"fmt"
	"sort"
	"strings"

	"lcm/internal/acfg"
	"lcm/internal/alias"
	"lcm/internal/dataflow"
	"lcm/internal/ir"
)

// Rel classifies a pair of memory accesses in the partition.
type Rel int

// Relations, ordered by strength.
const (
	// RelMay: no static separation — the pair may alias.
	RelMay Rel = iota
	// RelMustNotArch: provably distinct architecturally, but the facts
	// involved (points-to resolution across objects) are exactly the ones
	// §5.2 distrusts during transient execution.
	RelMustNotArch
	// RelMustNot: provably distinct even transiently — distinct stack
	// slots, or byte-disjoint load-free ranges within one base object.
	RelMustNot
)

func (r Rel) String() string {
	switch r {
	case RelMustNot:
		return "must-not-alias"
	case RelMustNotArch:
		return "must-not-alias(arch)"
	}
	return "may-alias"
}

// Partition refines the flow-insensitive points-to sets of internal/alias
// into a must-alias / must-not-alias partition over one function's memory
// nodes: accesses whose addresses provably resolve to the same base object
// at the same constant byte offset collapse into one must-alias class, and
// class pairs are separated by the strongest refutable relation — keeping
// the two S-AEG refinements the paper states (distinct stack allocations
// have distinct addresses; cross-object alias facts are distrusted during
// transient execution). No rule reads the partition — the stl-disjoint
// certificates record the pruner's own facts — so its only reader in the
// analyzer is lcmlint -why, through Explain.
type Partition struct {
	g *acfg.Graph

	// Classes lists the must-alias classes sorted by representative node.
	Classes []AliasClass

	classOf map[int]int // memory node → index into Classes
	sigs    []classSig  // per class, parallel to Classes
}

// AliasClass is one must-alias equivalence class.
type AliasClass struct {
	Rep     int    // representative (lowest) member node
	Members []int  // all member nodes, ascending
	Base    string // resolved base object ("" when unknown)
	// Lo/Hi bound the class's byte offsets inside Base when Bounded.
	Lo, Hi  int64
	Bounded bool
}

// classSig carries the alias/range facts the relation test needs.
type classSig struct {
	locs     []alias.Loc // sorted points-to set of the address
	external bool        // points-to set contains the external location
	alloca   int         // single-alloca points-to target node, -1 otherwise
	// ext is the access's extent, as the pruner resolves it; a merged
	// class's Width is its widest member's.
	ext dataflow.Extent
}

// addrOperand returns a memory node's address operand index, mirroring
// the alias layer's convention (-1 for havoc and non-memory nodes, whose
// footprint is unresolvable).
func addrOperand(n *acfg.Node) int {
	switch {
	case n.IsLoad():
		return 0
	case n.IsStore():
		return 1
	}
	return -1
}

// buildPartition groups the graph's memory nodes (loads, stores, havoc
// calls) into must-alias classes. mr may be nil: offset facts are then
// unavailable and only the pure points-to separations remain.
func buildPartition(g *acfg.Graph, al *alias.Analysis, mr *dataflow.ModuleRanges) *Partition {
	p := &Partition{g: g, classOf: map[int]int{}}
	type key struct {
		base string
		off  int64
	}
	byKey := map[key]int{}
	for _, n := range g.Nodes {
		if !n.IsLoad() && !n.IsStore() && n.Kind != acfg.NHavoc {
			continue
		}
		sig := p.signature(n, al, mr)
		ci := -1
		// Must-alias: a single resolved base at one constant offset with
		// one points-to target is an exact address — every such access
		// touches the same bytes modulo width.
		addr := sig.ext.Addr
		if addr.Known && addr.Off.Bounded() && addr.Off.Lo == addr.Off.Hi &&
			len(sig.locs) == 1 && !sig.external {
			k := key{base: baseName(addr), off: addr.Off.Lo}
			if j, ok := byKey[k]; ok {
				ci = j
			} else {
				byKey[k] = len(p.Classes)
			}
		}
		if ci >= 0 {
			p.Classes[ci].Members = append(p.Classes[ci].Members, n.ID)
			if w := sig.ext.Width; w > p.sigs[ci].ext.Width {
				p.sigs[ci].ext.Width = w // widest member bounds the footprint
			}
			p.classOf[n.ID] = ci
			continue
		}
		cls := AliasClass{Rep: n.ID, Members: []int{n.ID}}
		if addr.Known {
			cls.Base = baseName(addr)
			if addr.Off.Bounded() {
				cls.Lo, cls.Hi, cls.Bounded = addr.Off.Lo, addr.Off.Hi, true
			}
		}
		p.classOf[n.ID] = len(p.Classes)
		p.Classes = append(p.Classes, cls)
		p.sigs = append(p.sigs, sig)
	}
	return p
}

// signature resolves one memory node's alias and range facts.
func (p *Partition) signature(n *acfg.Node, al *alias.Analysis, mr *dataflow.ModuleRanges) classSig {
	sig := classSig{alloca: -1}
	i := addrOperand(n)
	if i < 0 {
		// Havoc calls may touch any of their pointer args: treat as
		// external so no separation is ever claimed.
		sig.external = true
		return sig
	}
	pts := al.PointsTo(n, i)
	for _, l := range pts {
		sig.locs = append(sig.locs, l)
		if l.Kind == alias.LExternal {
			sig.external = true
		}
	}
	sort.Slice(sig.locs, func(a, b int) bool { return locLess(sig.locs[a], sig.locs[b]) })
	if len(sig.locs) == 1 && sig.locs[0].Kind == alias.LAlloca {
		sig.alloca = sig.locs[0].Node
	}
	if mr != nil {
		sig.ext, _ = mr.Extent(n.Instr)
	}
	return sig
}

func locLess(a, b alias.Loc) bool {
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	if a.Node != b.Node {
		return a.Node < b.Node
	}
	return a.Global < b.Global
}

// baseName renders a resolved base object deterministically.
func baseName(a dataflow.AddrInfo) string {
	switch {
	case a.Global != nil:
		return "global:" + a.Global.Nm
	case a.Slot != nil:
		return "alloca:" + a.Slot.Nm
	}
	return ""
}

// ClassOf returns the partition class index of a memory node (-1 when the
// node is not a tracked memory access).
func (p *Partition) ClassOf(n int) int {
	if ci, ok := p.classOf[n]; ok {
		return ci
	}
	return -1
}

// Rel returns the strongest separation provable between two memory nodes.
// Nodes in the same must-alias class (or untracked nodes) are RelMay.
func (p *Partition) Rel(m, n int) Rel {
	ci, cj := p.ClassOf(m), p.ClassOf(n)
	if ci < 0 || cj < 0 || ci == cj {
		return RelMay
	}
	return p.classRel(ci, cj)
}

// classRel decides the relation between two distinct classes.
func (p *Partition) classRel(ci, cj int) Rel {
	a, b := p.sigs[ci], p.sigs[cj]
	// Distinct stack slots have distinct addresses even transiently (§5.2).
	if a.alloca >= 0 && b.alloca >= 0 && a.alloca != b.alloca {
		return RelMustNot
	}
	// Same base object, byte-disjoint load-free offsets: trusted under
	// bypass, the pruner's stl-disjoint rule.
	if dataflow.Disjoint(a.ext, b.ext) {
		return RelMustNot
	}
	// Disjoint points-to sets without the external wildcard separate the
	// pair architecturally only.
	if !a.external && !b.external && len(a.locs) > 0 && len(b.locs) > 0 && !locsIntersect(a.locs, b.locs) {
		return RelMustNotArch
	}
	return RelMay
}

func locsIntersect(a, b []alias.Loc) bool {
	for _, la := range a {
		for _, lb := range b {
			if la == lb {
				return true
			}
		}
	}
	return false
}

// Describe renders a memory node's class for triage output: members,
// base, offsets, and how many other classes it provably never aliases.
func (p *Partition) Describe(n int) string {
	ci := p.ClassOf(n)
	if ci < 0 {
		return "untracked access"
	}
	cls := p.Classes[ci]
	var b strings.Builder
	members := make([]string, len(cls.Members))
	for i, m := range cls.Members {
		members[i] = fmt.Sprint(m)
	}
	fmt.Fprintf(&b, "class{%s}", strings.Join(members, ","))
	if cls.Base != "" {
		fmt.Fprintf(&b, " base=%s", cls.Base)
		if cls.Bounded {
			fmt.Fprintf(&b, " off=[%d,%d]", cls.Lo, cls.Hi)
		}
	}
	mustNot, arch := 0, 0
	for cj := range p.Classes {
		if cj == ci {
			continue
		}
		switch p.classRel(ci, cj) {
		case RelMustNot:
			mustNot++
		case RelMustNotArch:
			arch++
		}
	}
	fmt.Fprintf(&b, " must-not-alias=%d/%d (+%d arch-only)", mustNot, len(p.Classes)-1, arch)
	return b.String()
}

// DescribeInstr renders the class of the first A-CFG node carrying in.
func (p *Partition) DescribeInstr(in *ir.Instr) (string, bool) {
	for _, n := range p.g.Nodes {
		if n.Instr == in && p.ClassOf(n.ID) >= 0 {
			return p.Describe(n.ID), true
		}
	}
	return "", false
}
