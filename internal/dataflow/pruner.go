package dataflow

import (
	"lcm/internal/ir"
)

// Pruner answers the detect engines' range queries. detect installs it
// unless Config.NoPrune is set; the engines hand it the instruction
// behind each A-CFG access node (inlined callee nodes share instruction
// pointers with their defining function, so per-function range facts
// apply unchanged).
//
// Soundness under each engine's speculation model:
//
//   - PHT (InBoundsAccess): mispredicted paths are still CFG paths, and
//     memory behaves normally, so any flow-sensitive interval fact proved
//     over the CFG holds on wrong paths too. An access confined to its
//     base object cannot read attacker-chosen memory, so it cannot be a
//     universal-transmitter access candidate.
//   - STL (DisjointPair): a bypassed store invalidates every fact that
//     passed through memory, so only LoadFree offset bounds are used, and
//     only within one base object — alias facts between distinct objects
//     are untrusted transiently (§5.2).
type Pruner struct {
	mr *ModuleRanges
}

// NewPruner builds the default range-analysis pruner for a module.
func NewPruner(m *ir.Module) *Pruner {
	return &Pruner{mr: NewModuleRanges(m)}
}

// Ranges exposes the pruner's shared per-module range analyses, so the
// static pre-solver (internal/presolve) builds its alias partition from
// the same interval facts the prune decisions use.
func (p *Pruner) Ranges() *ModuleRanges { return p.mr }

// InBoundsAccess resolves the access's extent and reports whether it
// provably stays inside its base object for every admitted value,
// including on transient paths. The extent is the fact the decision rests
// on: the pre-solver packages it, unchanged, as the prune's certificate.
// A nil Pruner (pruning disabled) decides nothing.
func (p *Pruner) InBoundsAccess(in *ir.Instr) (Extent, bool) {
	if p == nil {
		return Extent{}, false
	}
	e, ok := p.mr.Extent(in)
	return e, ok && e.InBounds()
}

// DisjointPair resolves a store's and a load's extents, each in its own
// function, and reports whether they provably cover disjoint bytes of the
// same object even under store bypass, so the pair cannot forward stale
// data. The extents are the facts the decision rests on. A nil Pruner
// decides nothing.
func (p *Pruner) DisjointPair(s, l *ir.Instr) (se, le Extent, ok bool) {
	if p == nil || s == nil || l == nil || s.Op != ir.OpStore || l.Op != ir.OpLoad {
		return Extent{}, Extent{}, false
	}
	se, ok1 := p.mr.Extent(s)
	le, ok2 := p.mr.Extent(l)
	return se, le, ok1 && ok2 && Disjoint(se, le)
}
