package detect

// Differential check of the bit-parallel feeder sweep against the pairwise
// scans it replaced, each kept here as the reference for the relation it
// built: feedsOf (index loads steering an access's address, with the
// addr_gep flag), computeSteering (per load, the memory nodes whose
// address it steers), the per-branch condition scan, and valueFeeders (per
// store, the non-spill loads feeding its data). Every reference reads
// reach from the per-source DFS (dfsReach). refFeeders, the relation's
// definition probed pair by pair, covers the shapes no single scan had:
// Clou-stl/psf's pair-ordered source list, and source lists of 1, 64 and
// 65 loads, one block, a full block, and a block plus one.

import (
	"context"
	"slices"
	"testing"

	"lcm/internal/acfg"
	"lcm/internal/aeg"
	"lcm/internal/cryptolib"
	"lcm/internal/ir"
	"lcm/internal/litmus"
)

// flowsToAddr reports whether the source value (summarized by r) steers
// dst's address, and whether the chain crosses a gep index hop.
func flowsToAddr(r denseReach, dst *acfg.Node) (ok, viaGEP bool) {
	for _, d := range addrDefs(dst) {
		if hit, gep := r.reaches(d); hit {
			if gep {
				return true, true
			}
			ok = true
		}
	}
	return ok, false
}

// refFeedsOf probes every load other than acc against acc's address defs.
func refFeedsOf(fl *denseFlow, loads []*acfg.Node, acc *acfg.Node) []feed {
	var out []feed
	for _, idx := range loads {
		if idx.ID == acc.ID {
			continue
		}
		if ok, gep := flowsToAddr(fl.from(idx.ID), acc); ok {
			out = append(out, feed{src: int32(idx.ID), gep: gep})
		}
	}
	return out
}

// refSteers probes every memory node other than acc for an address acc's
// value reaches.
func refSteers(fl *denseFlow, mems []*acfg.Node, acc *acfg.Node) []int {
	var out []int
	r := fl.from(acc.ID)
	for _, t := range mems {
		if ok, _ := flowsToAddr(r, t); ok && t.ID != acc.ID {
			out = append(out, t.ID)
		}
	}
	return out
}

// refCondFeeders scans every load, per branch.
func refCondFeeders(fl *denseFlow, cn *acfg.Node, loads []*acfg.Node) []int {
	if len(cn.ArgDefs) == 0 {
		return nil
	}
	var accs []int
	for _, acc := range loads {
		r := fl.from(acc.ID)
		for _, condDef := range cn.ArgDefs[0] {
			if ok, _ := r.reaches(condDef); ok {
				accs = append(accs, acc.ID)
				break
			}
		}
	}
	return accs
}

// refValueFeeders scans every non-spill load, per store.
func refValueFeeders(fl *denseFlow, s *acfg.Node, loads []*acfg.Node) []int {
	if len(s.ArgDefs) == 0 || len(s.ArgDefs[0]) == 0 {
		return nil
	}
	var out []int
	for _, acc := range loads {
		if acc.ID == s.ID || allocaReload(acc) {
			continue
		}
		r := fl.from(acc.ID)
		for _, def := range s.ArgDefs[0] {
			if ok, _ := r.reaches(def); ok {
				out = append(out, acc.ID)
				break
			}
		}
	}
	return out
}

// refFeeders is the relation's definition, per target and source in
// srcs order: a feed when the source is not the target and reaches one
// of its defs, through a gep hop when some reached def is reached
// through one.
func refFeeders(fl *denseFlow, srcs, targets []*acfg.Node, defs func(*acfg.Node) []int) [][]feed {
	out := make([][]feed, len(fl.dfs.f.start)-1)
	for _, s := range srcs {
		r := fl.from(s.ID)
		for _, t := range targets {
			if s.ID == t.ID {
				continue
			}
			ok, gep := false, false
			for _, def := range defs(t) {
				hit, via := r.reaches(def)
				ok, gep = ok || hit, gep || via
			}
			if ok {
				out[t.ID] = append(out[t.ID], feed{src: int32(s.ID), gep: gep})
			}
		}
	}
	return out
}

// sameFeeders requires got and want to list the same feeds for every
// target, in the same order.
func sameFeeders(t testing.TB, label, shape string, targets []*acfg.Node, got, want [][]feed) {
	t.Helper()
	for _, t0 := range targets {
		if !slices.Equal(got[t0.ID], want[t0.ID]) {
			t.Fatalf("%s: %s feeders of %d = %v, reference %v", label, shape, t0.ID, got[t0.ID], want[t0.ID])
		}
	}
}

func srcsOf(fs []feed) []int {
	var out []int
	for _, f := range fs {
		out = append(out, int(f.src))
	}
	return out
}

// checkFeeders builds every relation the engines read for one function of
// m and requires each to equal its reference, list by list and in order.
func checkFeeders(t testing.TB, label string, m *ir.Module, fn string) {
	t.Helper()
	fe, err := buildFrontend(m, fn, nil)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	d := &detector{ctx: context.Background(), cfg: DefaultPHT(), g: fe.g, flow: fe.flow, res: &Result{}}
	d.indexNodes()
	df := newDenseFlow(fe.flow)

	// Clou-pht's relation, read by access and transposed; Clou-imp's.
	pht := d.feeders(d.loads, d.mems, addrDefs)
	steers := steered(pht, d.mems)
	imp := d.feeders(d.loads, d.loads, addrDefs)
	for _, t0 := range d.mems {
		if got, want := pht[t0.ID], refFeedsOf(df, d.loads, t0); !slices.Equal(got, want) {
			t.Fatalf("%s: feeders of %d = %v, feedsOf %v", label, t0.ID, got, want)
		}
	}
	for _, l := range d.loads {
		if got, want := imp[l.ID], refFeedsOf(df, d.loads, l); !slices.Equal(got, want) {
			t.Fatalf("%s: load feeders of %d = %v, feedsOf %v", label, l.ID, got, want)
		}
		if got, want := steers[l.ID], refSteers(df, d.mems, l); !slices.Equal(got, want) {
			t.Fatalf("%s: steered by %d = %v, computeSteering %v", label, l.ID, got, want)
		}
	}

	// The branch condition and silent-store data relations.
	var branches []*acfg.Node
	for _, n := range fe.g.Nodes {
		if n.IsBranch() {
			branches = append(branches, n)
		}
	}
	cond := d.feeders(d.loads, branches, valueDefs)
	for _, b := range branches {
		if got, want := srcsOf(cond[b.ID]), refCondFeeders(df, b, d.loads); !slices.Equal(got, want) {
			t.Fatalf("%s: condition feeders of %d = %v, per-branch scan %v", label, b.ID, got, want)
		}
	}
	var spill []*acfg.Node
	for _, l := range d.loads {
		if !allocaReload(l) {
			spill = append(spill, l)
		}
	}
	ss := d.feeders(spill, d.stores, valueDefs)
	for _, s := range d.stores {
		if got, want := srcsOf(ss[s.ID]), refValueFeeders(df, s, d.loads); !slices.Equal(got, want) {
			t.Fatalf("%s: data feeders of %d = %v, valueFeeders %v", label, s.ID, got, want)
		}
	}

	// Clou-stl's and Clou-psf's relation: the pairs' distinct loads, in
	// pair order (store by store), not load-ID order.
	d.al, d.cfgReach, d.a = fe.al, fe.cfgReach, aeg.Build(fe.g, fe.al, aeg.Options{})
	for _, psf := range []bool{false, true} {
		pairs, _ := d.forwardPairs(psf)
		var fwd []*acfg.Node
		seen := map[int]bool{}
		for _, p := range pairs {
			if !seen[p.l] {
				seen[p.l] = true
				fwd = append(fwd, fe.g.Nodes[p.l])
			}
		}
		sameFeeders(t, label, "forwarding", d.mems,
			d.feeders(fwd, d.mems, addrDefs), refFeeders(df, fwd, d.mems, addrDefs))
	}

	// Source lists of one block, a full block and a block plus one, the
	// last both in load order and reversed.
	for _, k := range []int{1, 64, 65} {
		if len(d.loads) < k {
			break
		}
		srcs := d.loads[:k]
		sameFeeders(t, label, "prefix", d.mems,
			d.feeders(srcs, d.mems, addrDefs), refFeeders(df, srcs, d.mems, addrDefs))
		if k == 65 {
			srcs = slices.Clone(srcs)
			slices.Reverse(srcs)
			sameFeeders(t, label, "reversed", d.mems,
				d.feeders(srcs, d.mems, addrDefs), refFeeders(df, srcs, d.mems, addrDefs))
		}
	}

	// Two contracts the corpus relations leave unexercised. A target whose
	// defs are every node is fed by each load, through a gep hop exactly
	// when some path from the load crosses one: the first def a load
	// reaches is itself, never via a gep, so the flag must OR every
	// reached def's. And a source reaches itself, so a load whose def is
	// itself would be listed among its own feeders were self-edges kept.
	every := make([]int, fe.g.Len())
	for i := range every {
		every[i] = i
	}
	entry := fe.g.Nodes[fe.g.Entry]
	var want []feed
	for _, l := range d.loads {
		r, gep := df.from(l.ID), false
		for n := range every {
			_, via := r.reaches(n)
			gep = gep || via
		}
		want = append(want, feed{src: int32(l.ID), gep: gep})
	}
	all := d.feeders(d.loads, []*acfg.Node{entry}, func(*acfg.Node) []int { return every })
	if got := all[entry.ID]; !slices.Equal(got, want) {
		t.Fatalf("%s: feeders of every node = %v, want %v", label, got, want)
	}
	self := d.feeders(d.loads, d.loads, func(n *acfg.Node) []int { return []int{n.ID} })
	for _, l := range d.loads {
		if slices.Contains(srcsOf(self[l.ID]), l.ID) {
			t.Fatalf("%s: load %d feeds itself: %v", label, l.ID, self[l.ID])
		}
	}
	if d.res.Fault != nil {
		t.Fatalf("%s: sweep faulted: %v", label, d.res.Fault)
	}
}

func TestFeedersMatchReferenceLitmus(t *testing.T) {
	for _, c := range litmus.All() {
		checkFeeders(t, c.Suite+"/"+c.Name, compile(t, c.Source), c.Fn)
	}
}

func TestFeedersMatchReferenceCryptolib(t *testing.T) {
	if testing.Short() {
		t.Skip("cryptolib graphs are large")
	}
	for _, lib := range cryptolib.All() {
		m := compile(t, lib.Source)
		for _, fn := range lib.PublicFuncs {
			checkFeeders(t, lib.Name+"/"+fn, m, fn)
		}
	}
}
