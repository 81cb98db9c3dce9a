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
	"math/bits"
	"sync"

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
// through its index operand (the addr_gep signal of §5.2). Per-source
// reach lists are memoized on the graph itself, so they are shared across
// the candidates of one engine run, across the engines of a cached
// frontend, and across concurrent detector runs.
type flowGraph struct {
	start []int32
	edges []int32

	mu   sync.Mutex
	memo []reachInfo // per source node ID, nil until computed
}

func buildFlowGraph(g *acfg.Graph, al *alias.Analysis) *flowGraph {
	f := &flowGraph{memo: make([]reachInfo, g.Len())}
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
	// cut to its reach row and emitted in ascending order.
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
		for w, row := range g.ReachRow(s.ID) {
			word := targets[w] & row
			targets[w] = 0
			for word != 0 {
				add(s.ID, w*64+bits.TrailingZeros64(word), false)
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
		f.edges[cursor[e.src]] = e.packed
		cursor[e.src]++
	}
	return f
}

// reachInfo lists the nodes one source's value reaches, once each, in
// discovery order: entries are packed node<<1|gep, the CSR edge packing,
// with gep set when some reaching path crosses a gep index hop. The
// source itself is always the first entry. A list, not n-bit sets: a load
// reaches about a hundred of donna's ten thousand nodes.
type reachInfo []int32

// reachScratch is one traversal's reusable working memory: a node is
// listed in the current traversal when its stamp equals epoch, and at
// holds its entry's index in list. Epochs only grow, so stamps left by
// an earlier traversal, over any graph, never match.
type reachScratch struct {
	stamp []uint32
	at    []int32
	epoch uint32
	list  []int32
	stack []int32
}

// reachScratchPool hands each concurrent traversal its own scratch. It is
// shared by every graph: a pool per graph would keep each graph reachable
// from the runtime's pool list until two collections after its last use.
var reachScratchPool = sync.Pool{New: func() any { return new(reachScratch) }}

// from returns (computing and memoizing on first use) the reach list of
// one source node. Safe for concurrent use; the traversal is pure, so two
// racing computations produce identical results and either may be kept.
func (f *flowGraph) from(src int) reachInfo {
	f.mu.Lock()
	r := f.memo[src]
	f.mu.Unlock()
	if r != nil {
		return r
	}
	r = f.compute(src)
	f.mu.Lock()
	if prev := f.memo[src]; prev != nil {
		r = prev
	} else {
		f.memo[src] = r
	}
	f.mu.Unlock()
	return r
}

// compute runs the DFS over (node, crossed-gep) states, packed
// node<<1|gep like a CSR edge, so following an edge is a single OR of the
// gep flags. A state adds nothing once its node is listed with at least
// its gep flag: whatever (n, 0) reaches, (n, 1) reaches with the flag set.
// Concurrent callers each take their own scratch from the pool.
func (f *flowGraph) compute(src int) reachInfo {
	sc := reachScratchPool.Get().(*reachScratch)
	defer reachScratchPool.Put(sc)
	if n := len(f.start) - 1; len(sc.stamp) < n {
		sc.stamp, sc.at = make([]uint32, n), make([]int32, n)
	}
	if sc.epoch++; sc.epoch == 0 {
		clear(sc.stamp)
		sc.epoch = 1
	}
	list, stack := sc.list[:0], append(sc.stack[:0], int32(src)<<1)
	for len(stack) > 0 {
		st := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		node, gep := st>>1, st&1
		if sc.stamp[node] == sc.epoch {
			i := sc.at[node]
			if list[i]&1 >= gep {
				continue
			}
			list[i] |= 1
		} else {
			sc.stamp[node] = sc.epoch
			sc.at[node] = int32(len(list))
			list = append(list, st)
		}
		for _, e := range f.edges[f.start[node]:f.start[node+1]] {
			next := e | gep
			if to := next >> 1; sc.stamp[to] == sc.epoch && list[sc.at[to]]&1 >= next&1 {
				continue
			}
			stack = append(stack, next)
		}
	}
	sc.list, sc.stack = list, stack
	return append(reachInfo(nil), list...)
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
