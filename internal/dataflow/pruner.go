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
// static pre-solver (internal/presolve) derives its certificates from the
// same interval facts the prune decisions use.
func (p *Pruner) Ranges() *ModuleRanges { return p.mr }

// InBoundsAccess reports whether the access provably stays inside its
// base object for every admitted value, including on transient paths.
func (p *Pruner) InBoundsAccess(in *ir.Instr) bool {
	if in == nil {
		return false
	}
	r := p.mr.ForInstr(in)
	return r != nil && r.InBounds(in)
}

// DisjointPair reports whether the store and load provably touch disjoint
// bytes of the same object even under store bypass, so the pair cannot
// forward stale data.
func (p *Pruner) DisjointPair(s, l *ir.Instr) bool {
	if s == nil || l == nil || s.Op != ir.OpStore || l.Op != ir.OpLoad {
		return false
	}
	rs := p.mr.ForInstr(s)
	rl := p.mr.ForInstr(l)
	if rs == nil || rl == nil {
		return false
	}
	if rs == rl {
		return rs.DisjointRanges(s, l)
	}
	// The pair spans an inline boundary (A-CFG nodes of caller and
	// callee): resolve each side in its own function and require the same
	// global base.
	as := rs.Addr(s.Args[1])
	al := rl.Addr(l.Args[0])
	if !as.Known || !al.Known || as.Global == nil || as.Global != al.Global {
		return false
	}
	if !as.Off.LoadFree || !al.Off.LoadFree || !as.Off.Bounded() || !al.Off.Bounded() {
		return false
	}
	sEnd, ok1 := addOv(as.Off.Hi, int64(s.Args[0].Type().Size()))
	lEnd, ok2 := addOv(al.Off.Hi, int64(l.Ty.Size()))
	if !ok1 || !ok2 {
		return false
	}
	return sEnd <= al.Off.Lo || lEnd <= as.Off.Lo
}
