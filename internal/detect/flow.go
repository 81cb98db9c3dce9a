// Package detect implements Clou's leakage detection engines (§5.3):
// Clou-pht searches for transmitters reachable through control-flow
// mis-speculation (Spectre v1/v1.1), Clou-stl for transmitters steered by
// store-to-load bypass (Spectre v4). Both look for violations of the
// rf-non-interference predicate of §4.1 — a transient or stale-valued
// access whose value steers the address of a later memory access — and
// classify the result per the Table 1 taxonomy, with Clou's addr_gep and
// taint filters.
package detect

import (
	"fmt"
	"math/bits"

	"lcm/internal/acfg"
	"lcm/internal/alias"
	"lcm/internal/dataflow"
	"lcm/internal/ir"
)

// flowGraph materializes the (data.rf)* value-flow relation of §5.3 over
// the A-CFG: direct def-use edges through value-producing instructions,
// plus store→load edges through may-aliasing memory (the data.rf hops —
// at -O0 every spill/reload is one). A load's address operand is *not* a
// value edge: value used as an address is an addr dependency, the pattern
// boundary of Table 1, not a link inside a chain.
//
// The adjacency is a CSR array: edges[start[n]:start[n+1]] are node n's
// out-edges, each packed to<<1|gep, where gep marks a hop entering a GEP
// through its index operand (the addr_gep signal of §5.2). Every edge goes
// forward in the A-CFG's topological order, which the graph keeps with
// each node's position in it, so one pass over that order carries any set
// of values to everything they reach (sweep). The graph is immutable after
// construction and shared by every detector of a cached frontend.
type flowGraph struct {
	start []int32
	edges []int32
	order []int   // node IDs in topological order (the A-CFG's Topo)
	pos   []int32 // node ID → index in order
}

// buildFlowGraph builds the CSR graph. It fails if an edge does not go
// forward in the A-CFG's topological order: the sweep would miss what
// such an edge carries.
func buildFlowGraph(g *acfg.Graph, al *alias.Analysis) (*flowGraph, error) {
	f := &flowGraph{order: g.Topo(), pos: make([]int32, g.Len())}
	if len(f.order) != g.Len() {
		return nil, fmt.Errorf("%s: value flow: the A-CFG has a cycle", g.Fn)
	}
	for i, id := range f.order {
		f.pos[id] = int32(i)
	}
	type rawEdge struct{ src, packed int32 }
	var raw []rawEdge
	add := func(src, to int, gep bool) {
		p := int32(to) << 1
		if gep {
			p |= 1
		}
		raw = append(raw, rawEdge{src: int32(src), packed: p})
	}
	for _, n := range g.Nodes {
		if n.Instr == nil {
			continue
		}
		switch {
		case n.Kind == acfg.NHavoc:
			// Arguments flow into the havoc result.
			for _, defs := range n.ArgDefs {
				for _, d := range defs {
					add(d, n.ID, false)
				}
			}
		case n.IsLoad():
			// no value edges in: the loaded value comes from memory
		case n.IsStore():
			for _, d := range n.ArgDefs[0] { // stored value only
				add(d, n.ID, false)
			}
		case n.Kind == acfg.NInstr:
			switch n.Instr.Op {
			case ir.OpBin, ir.OpCmp, ir.OpCast, ir.OpGEP, ir.OpFieldGEP:
				for i, defs := range n.ArgDefs {
					gep := n.Instr.Op == ir.OpGEP && i == 1
					for _, d := range defs {
						add(d, n.ID, gep)
					}
				}
			}
		}
	}
	// data.rf hops: store s → load l when they may address the same
	// location and s can reach l. Index the loads by address location
	// once; a store's targets are then the loads its alias mask selects,
	// walked in ascending order and kept where the A-CFG's reach admits.
	var loadsAt [][]int32 // location → loads whose address may name it
	var stores []*acfg.Node
	for _, n := range g.Nodes {
		if n.IsStore() {
			stores = append(stores, n)
		}
		if !n.IsLoad() {
			continue
		}
		addr, _ := al.Summary(n)
		addr.ForEach(func(loc int) {
			if loc >= len(loadsAt) {
				loadsAt = append(loadsAt, make([][]int32, loc+1-len(loadsAt))...)
			}
			loadsAt[loc] = append(loadsAt[loc], int32(n.ID))
		})
	}
	reach := g.Reach()
	targets := dataflow.NewBitSet(g.Len())
	for _, s := range stores {
		_, mask := al.Summary(s)
		mask.ForEach(func(loc int) {
			if loc < len(loadsAt) {
				for _, l := range loadsAt[loc] {
					targets.Set(int(l))
				}
			}
		})
		for w, word := range targets {
			targets[w] = 0
			for word != 0 {
				if l := w*64 + bits.TrailingZeros64(word); reach(s.ID, l) {
					add(s.ID, l, false)
				}
				word &= word - 1
			}
		}
	}
	// Counting sort into CSR, stable per source.
	n := g.Len()
	f.start = make([]int32, n+1)
	for _, e := range raw {
		f.start[e.src+1]++
	}
	for i := 0; i < n; i++ {
		f.start[i+1] += f.start[i]
	}
	f.edges = make([]int32, len(raw))
	cursor := make([]int32, n)
	copy(cursor, f.start[:n])
	for _, e := range raw {
		if to := e.packed >> 1; f.pos[to] <= f.pos[e.src] {
			return nil, fmt.Errorf("%s: value flow: edge %d → %d goes backward in topological order", g.Fn, e.src, to)
		}
		f.edges[cursor[e.src]] = e.packed
		cursor[e.src]++
	}
	return f, nil
}

// sweep carries bit-parallel value sets forward: reach[n] holds the
// sources whose value reaches node n, one bit each, and viaGep[n] those
// whose value reaches it through a gep index hop on some path. Seeded
// with the sources' own bits, one pass over the topological order from
// position first (no source sits earlier) ORs each node's words into its
// successors', so every node's words are final before they are read.
func (f *flowGraph) sweep(reach, viaGep []uint64, first int) {
	for _, u := range f.order[first:] {
		r := reach[u]
		if r == 0 {
			continue
		}
		g := viaGep[u]
		for _, e := range f.edges[f.start[u]:f.start[u+1]] {
			to := e >> 1
			reach[to] |= r
			if e&1 != 0 {
				viaGep[to] |= r
			} else {
				viaGep[to] |= g
			}
		}
	}
}

// addrDefs returns the defining nodes of a memory node's address operand
// (all pointer operands for havoc calls).
func addrDefs(n *acfg.Node) []int {
	switch {
	case n.IsLoad():
		if len(n.ArgDefs) > 0 {
			return n.ArgDefs[0]
		}
	case n.IsStore():
		if len(n.ArgDefs) > 1 {
			return n.ArgDefs[1]
		}
	case n.Kind == acfg.NHavoc:
		var out []int
		for i, a := range n.Instr.Args {
			if ir.IsPtr(a.Type()) && i < len(n.ArgDefs) {
				out = append(out, n.ArgDefs[i]...)
			}
		}
		return out
	}
	return nil
}
