package detect

import (
	"lcm/internal/acfg"
	"lcm/internal/core"
	"lcm/internal/ir"
	"lcm/internal/presolve"
)

// This file holds the taxonomy engines beyond branch prediction and
// store-to-load bypass: the candidate shapes of speculative store
// forwarding via alias prediction (Clou-psf, whose pair loop it shares
// with Clou-stl in runForwarding), the indirect memory prefetcher
// (Clou-imp, Fig. 5b), and silent stores (Clou-ss, Fig. 5a). Every
// engine's candidates go through the same decide step (ask) over the
// same S-AEG; only the candidate shapes differ.

// mustAliasExact reports that the store and load provably touch the same
// address with the same width, so forwarding is architecturally correct
// and the alias predictor has nothing to mispredict: the address
// operands are literally the same value (the alloca-reload pattern) or
// name the same global.
func mustAliasExact(s, l *acfg.Node) bool {
	if s.Instr == nil || l.Instr == nil {
		return false
	}
	if s.Instr.Args[0].Type().Size() != l.Instr.Ty.Size() {
		return false
	}
	sa, la := s.Instr.Args[1], l.Instr.Args[0]
	if sa == la {
		return true
	}
	sg, ok1 := sa.(*ir.Global)
	lg, ok2 := la.(*ir.Global)
	return ok1 && ok2 && sg.Nm == lg.Nm
}

// runIMP searches for the indirect memory prefetcher's universal read: a
// dependent load pair (index load i feeding data load t's address) that
// executes at least twice trains the prefetcher, which then dereferences
// the NEXT index element on its own — memory the program never
// architecturally reads (Fig. 5b). Statically, "trained" means the same
// static instruction pair has ≥2 instances in the unrolled A-CFG; each
// adjacent instance pair is one training window, and the second data
// instance is the transmitter whose prefetch leaks.
func (d *detector) runIMP() {
	// Collect dependent pair instances in load-ID order (deterministic),
	// grouped by static (index instr, data instr) pair. Reaching defs
	// cross unrolled iterations (iteration 1's index load also feeds
	// iteration 2's data load through the merge), so per data instance
	// only the nearest instance of each static index load — the same
	// iteration's — is the pair's index access.
	type inst struct{ i, dnode int }
	groups := map[[2]*ir.Instr][]inst{}
	var order [][2]*ir.Instr
	nearest := map[*ir.Instr]int{}
	feeds := d.feeders(d.loads, d.loads, addrDefs)
	for _, dn := range d.loads {
		if d.outOfBudget() {
			return
		}
		if dn.Instr == nil {
			continue
		}
		clear(nearest)
		for _, e := range feeds[dn.ID] {
			if d.cfg.RequireGEP && !e.gep {
				continue
			}
			idx := int(e.src)
			in := d.g.Nodes[idx]
			if in.Instr == nil || !walkAddressed(in.Instr) {
				continue
			}
			if prev, ok := nearest[in.Instr]; !ok || idx > prev {
				nearest[in.Instr] = idx
			}
		}
		// Feeders come in load-ID order, so the first sighting of each
		// static index instr fixes a deterministic group order.
		for _, e := range feeds[dn.ID] {
			idx := int(e.src)
			in := d.g.Nodes[idx]
			if in.Instr == nil || nearest[in.Instr] != idx {
				continue
			}
			gk := [2]*ir.Instr{in.Instr, dn.Instr}
			if _, ok := groups[gk]; !ok {
				order = append(order, gk)
			}
			groups[gk] = append(groups[gk], inst{i: idx, dnode: dn.ID})
		}
	}

	var qn [4]int
	for _, gk := range order {
		insts := groups[gk]
		// Adjacent instance pairs in program order: (i1,t1) trains,
		// (i2,t2) fires the prefetch of the next element's line.
		for k := 0; k+1 < len(insts); k++ {
			a, b := insts[k], insts[k+1]
			if a.dnode == b.dnode || !d.cfgReach(a.dnode, b.i) {
				continue
			}
			if d.outOfBudget() {
				return
			}
			d.res.Candidates++
			// lfence flushes the prefetcher's training state: a fence on
			// every path between the first index access and the second
			// data access leaves it untrained when the prefetch would fire.
			if d.fenceBetween(a.i, b.dnode) {
				continue
			}
			// The prefetcher reads the next index element and its data
			// line regardless of program bounds: a universal read.
			if !d.wantClass(core.UDT) {
				continue
			}
			key := candKey{kind: candIMP, a: a.i, b: b.dnode}
			if d.found[key] {
				continue
			}
			qn[0], qn[1], qn[2], qn[3] = a.i, a.dnode, b.i, b.dnode
			if d.ask(key, presolve.Query{Branch: -1, Exec: qn[:4]}) {
				d.report(key, Finding{
					Class:    core.UDT,
					Transmit: b.dnode, Access: a.dnode, Index: b.i,
					Branch: -1, Store: -1, Load: a.i,
					// The training accesses are architectural; the leak is
					// the prefetch the hardware issues alongside them.
					TransientTransmit: false, TransientAccess: false,
				})
			}
		}
	}
}

// walkAddressed reports whether the index load's own address is computed
// (a GEP) rather than a fixed slot: the prefetcher needs a striding
// index stream, and a scalar reload (alloca or global) has stride zero.
func walkAddressed(in *ir.Instr) bool {
	a, ok := in.Args[0].(*ir.Instr)
	return ok && (a.Op == ir.OpGEP || a.Op == ir.OpFieldGEP)
}

// runSS searches for silent-store transmitters: a store whose data
// depends on a secret-holding load commits silently exactly when the
// value already matches memory, so the presence/absence of the line
// allocation transmits the comparison outcome (Fig. 5a). The channel is
// control-shaped — one bit per store — so findings are CT, or UCT when
// the attacker also steers which address is compared.
//
// A store's feeders are the loads whose values flow into its data operand
// — the secret sources a silent commit would compare against memory — in
// load-ID order. Scalar alloca reloads are not feeders: a -O0 spill slot
// only ever holds values the function computed itself (arguments,
// locals), so a store sourced exclusively from them compares
// attacker-known data against memory and leaks nothing.
func (d *detector) runSS() {
	exit := d.exitNode()
	var srcs []*acfg.Node
	for _, l := range d.loads {
		if !allocaReload(l) {
			srcs = append(srcs, l)
		}
	}
	feeds := d.feeders(srcs, d.stores, valueDefs)

	var qn [2]int
	for _, s := range d.stores {
		if s.Instr == nil {
			continue
		}
		if d.outOfBudget() {
			return
		}
		if len(feeds[s.ID]) == 0 {
			continue
		}
		d.res.Candidates++
		// A fence on every path from the store to the exit forces a
		// verbatim drain: the write commits (and allocates) regardless of
		// the compare, so no residue depends on the data.
		if exit >= 0 && d.fenceBetween(s.ID, exit) {
			continue
		}
		class := core.CT
		if d.ta.AddressControlled(s) {
			if e, ok := d.pruner.InBoundsAccess(s.Instr); ok {
				// In-bounds store: the attacker steers within one object,
				// not to arbitrary memory — only the universality claim
				// dies, the one-bit channel remains.
				d.prune(d.ps.InBoundsCert(s, e))
			} else {
				class = core.UCT
			}
		}
		if !d.wantClass(class) {
			continue
		}
		for _, f := range feeds[s.ID] {
			aID := int(f.src)
			key := candKey{kind: candSS, a: s.ID, b: aID}
			if d.found[key] {
				continue
			}
			qn[0], qn[1] = aID, s.ID
			if d.ask(key, presolve.Query{Branch: -1, Exec: qn[:2]}) {
				d.report(key, Finding{
					Class:    class,
					Transmit: s.ID, Access: aID, Index: -1,
					Branch: -1, Store: s.ID, Load: -1,
					TransientTransmit: false, TransientAccess: false,
				})
				break // one witness per store; Counts dedups by transmitter
			}
		}
	}
}

// allocaReload reports whether the load reads a scalar stack slot
// directly (its address operand is an alloca instruction).
func allocaReload(n *acfg.Node) bool {
	if n.Instr == nil || len(n.Instr.Args) == 0 {
		return false
	}
	a, ok := n.Instr.Args[0].(*ir.Instr)
	return ok && a.Op == ir.OpAlloca
}

// exitNode returns the function's synthetic exit node, -1 if absent.
func (d *detector) exitNode() int {
	for _, n := range d.g.Nodes {
		if n.Kind == acfg.NExit {
			return n.ID
		}
	}
	return -1
}
