// Package repair implements Clou's automatic mitigation (§6.1): insert a
// minimal number of speculation fences (lfence) so that no detected
// transmitter survives. Candidate fence positions are instructions lying
// between a finding's speculation primitive and its transmitter; a minimum
// hitting set of the findings' kill lists is found by dominance reduction
// and branching, applied to the IR, and validated by re-running detection
// — the loop continues until the program is clean.
package repair

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"lcm/internal/acfg"
	"lcm/internal/detect"
	"lcm/internal/ir"
)

// Result reports a repair run.
type Result struct {
	Fences    int // fences inserted
	Rounds    int // detect→repair iterations
	Remaining int // findings left (0 on success)
}

// Repair analyzes fn with cfg, inserts fences into m until detection runs
// clean (or maxRounds is hit), and reports the fence count.
func Repair(m *ir.Module, fn string, cfg detect.Config, maxRounds int) (Result, error) {
	return RepairCtx(context.Background(), m, fn, cfg, maxRounds)
}

// RepairCtx is Repair under a context: cancellation aborts the current
// detection round or fence minimisation promptly (each detection round
// still gets cfg.Timeout on top).
// Repair mutates m between rounds, so any analysis cache the caller set
// on cfg is dropped — cached front ends would describe the pre-fence IR.
func RepairCtx(ctx context.Context, m *ir.Module, fn string, cfg detect.Config, maxRounds int) (Result, error) {
	cfg.Cache = nil
	parent := cfg.Span
	repairSpan := parent.Start("repair:" + fn)
	defer repairSpan.End()
	if maxRounds == 0 {
		maxRounds = 8
	}
	total := 0
	for round := 1; round <= maxRounds; round++ {
		if err := ctx.Err(); err != nil {
			return Result{Fences: total, Rounds: round}, err
		}
		roundSpan := repairSpan.Start(fmt.Sprintf("round-%d", round))
		cfg.Span = roundSpan
		res, err := detect.AnalyzeFuncCtx(ctx, m, fn, cfg)
		if err != nil {
			roundSpan.End()
			return Result{Fences: total, Rounds: round}, err
		}
		if len(res.Findings) == 0 {
			roundSpan.End()
			cfg.Metrics.Counter("repair.rounds").Add(int64(round))
			return Result{Fences: total, Rounds: round}, nil
		}
		points, err := minimalFences(ctx, res)
		if err != nil {
			roundSpan.End()
			return Result{Fences: total, Rounds: round, Remaining: len(res.Findings)}, err
		}
		if len(points) == 0 {
			roundSpan.End()
			return Result{Fences: total, Rounds: round, Remaining: len(res.Findings)},
				fmt.Errorf("repair: no fence position can cut remaining leakage")
		}
		for _, p := range points {
			insertFenceBefore(p)
			total++
		}
		cfg.Metrics.Counter("repair.fences").Add(int64(len(points)))
		roundSpan.End()
	}
	cfg.Span = repairSpan
	res, err := detect.AnalyzeFuncCtx(ctx, m, fn, cfg)
	if err != nil {
		return Result{Fences: total, Rounds: maxRounds}, err
	}
	return Result{Fences: total, Rounds: maxRounds, Remaining: len(res.Findings)}, nil
}

// span is a window a fence must close: every A-CFG path from a finding's
// primitive node to its transmitter node.
type span struct{ from, to int }

// minimalFences computes a minimum set of instructions before which an
// lfence cuts every finding.
func minimalFences(ctx context.Context, res *detect.Result) ([]*ir.Instr, error) {
	spans := findingSpans(res)
	if len(spans) == 0 {
		return nil, nil
	}
	cands := candidates(res.Graph, spans)
	killers, err := killLists(ctx, res.Graph, spans, cands)
	if err != nil {
		return nil, err
	}
	var out []*ir.Instr
	for _, j := range hittingSet(killers) {
		out = append(out, cands[j])
	}
	return out, nil
}

// hittingSet returns the ascending indices of a minimum set of candidates
// that meets every kill list. Of the minimum sets it returns the first
// the search reaches, which depends only on the lists.
func hittingSet(lists [][]int) []int {
	n := 0
	for _, l := range lists {
		n = max(n, l[len(l)-1]+1)
	}
	set, _ := hit(lists, n, n+1)
	slices.Sort(set)
	return set
}

// hit returns the first smallest set of fewer than limit candidates (all
// below n) that meets every list, or false if there is none. A candidate
// whose lists another candidate also meets is dropped (of two that meet
// the same lists, the higher index); then each remaining candidate of the
// shortest list is tried in turn, and the lists it leaves unmet are
// solved recursively under a limit one below the best set found so far.
func hit(lists [][]int, n, limit int) ([]int, bool) {
	if len(lists) == 0 || limit <= 1 {
		return nil, len(lists) == 0 && limit > 0
	}
	meets := make([][]int, n) // meets[c]: the lists c meets, ascending
	for i, l := range lists {
		for _, c := range l {
			meets[c] = append(meets[c], i)
		}
	}
	// c is dominated when a candidate d meets every list c meets, and more
	// lists or has the lower index; any such d is in c's first list.
	dominated := func(c int) bool {
		mc := meets[c]
		return slices.ContainsFunc(lists[mc[0]], func(d int) bool {
			md := meets[d]
			return (len(md) > len(mc) || len(md) == len(mc) && d < c) &&
				!slices.ContainsFunc(mc, func(i int) bool { _, ok := slices.BinarySearch(md, i); return !ok })
		})
	}
	live := make([]bool, n)
	for c, mc := range meets {
		live[c] = len(mc) > 0 && !dominated(c)
	}
	var branch []int
	for _, l := range lists {
		left := slices.DeleteFunc(slices.Clone(l), func(c int) bool { return !live[c] })
		if branch == nil || len(left) < len(branch) {
			branch = left
		}
	}
	var best []int
	for _, c := range branch {
		rest := slices.DeleteFunc(slices.Clone(lists), func(l []int) bool { return slices.Contains(l, c) })
		if sub, ok := hit(rest, n, limit-1); ok {
			best, limit = append(sub, c), len(sub)+1
		}
	}
	return best, best != nil
}

// findingSpans lists the spans of res's findings, in finding order.
func findingSpans(res *detect.Result) []span {
	g := res.Graph
	reach := g.Reach()
	var spans []span
	for _, f := range res.Findings {
		if f.Store >= 0 && f.Transmit == f.Store {
			// Silent-store finding (Clou-ss): the store itself transmits
			// when it commits, so there is no downstream transmitter to
			// fence off. The cut is a serializing drain between the store
			// and every reachable return — the fence forces a verbatim
			// commit before the elision compare could fire.
			for _, n := range g.Nodes {
				if n.Instr != nil && n.Instr.Op == ir.OpRet && reach(f.Store, n.ID) {
					spans = append(spans, span{f.Store, n.ID})
				}
			}
			continue
		}
		from := f.Branch
		if from < 0 {
			from = f.Store
		}
		if from < 0 {
			// Clou-imp findings carry neither branch nor store: the
			// window opens at the first trained index load.
			from = f.Load
		}
		if from < 0 {
			continue
		}
		spans = append(spans, span{from, f.Transmit})
	}
	return spans
}

// candidates returns the candidate cut instructions: instructions of
// nodes lying on some span's path (transmitter included — a fence
// immediately before it always works; primitive excluded), ordered by
// printed form, ties broken by the lowest node ID carrying the instruction.
func candidates(g *acfg.Graph, spans []span) []*ir.Instr {
	reach := g.Reach()
	onPath := func(n int) bool {
		for _, sp := range spans {
			if n != sp.from && (n == sp.to || reach(sp.from, n) && reach(n, sp.to)) {
				return true
			}
		}
		return false
	}
	var order []*ir.Instr // placeable instructions by lowest carrying node
	on := map[*ir.Instr]bool{}
	for _, n := range g.Nodes {
		if n.Instr != nil && placeable(n.Instr) {
			if _, seen := on[n.Instr]; !seen {
				order = append(order, n.Instr)
			}
			on[n.Instr] = on[n.Instr] || onPath(n.ID)
		}
	}
	var cands []*ir.Instr
	key := map[*ir.Instr]string{}
	for _, in := range order {
		if on[in] {
			cands = append(cands, in)
			key[in] = in.String()
		}
	}
	sort.SliceStable(cands, func(i, j int) bool { return key[cands[i]] < key[cands[j]] })
	return cands
}

// killLists returns, per span, the indices of the candidates whose fence
// cuts it: each distinct span is searched once per candidate, by a DFS from
// its primitive that never enters a node carrying the candidate nor leaves
// the nodes that reach its transmitter. It returns ctx's error, checked
// between spans, once ctx is done.
func killLists(ctx context.Context, g *acfg.Graph, spans []span, cands []*ir.Instr) ([][]int, error) {
	reach := g.Reach()
	mark := make([]int, g.Len()) // mark[n] == stamp: visited by the current DFS
	stamp := 0
	var stack []int
	cuts := func(sp span, in *ir.Instr) bool {
		stamp++
		mark[sp.from] = stamp
		stack = append(stack[:0], sp.from)
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, s := range g.Succs(n) {
				switch {
				case g.Nodes[s].Instr == in || mark[s] == stamp:
					// Blocked here (a fence before the transmitter itself
					// blocks it), or already explored.
				case s == sp.to:
					return false
				case reach(s, sp.to):
					mark[s] = stamp
					stack = append(stack, s)
				}
			}
		}
		return true
	}
	lists := make([][]int, len(spans))
	known := map[span][]int{}
	for i, sp := range spans {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ks, ok := known[sp]
		if !ok && sp.from != sp.to {
			for j, in := range cands {
				if cuts(sp, in) {
					ks = append(ks, j)
				}
			}
			known[sp] = ks
		}
		if len(ks) == 0 {
			return nil, fmt.Errorf("repair: finding %d has no cutting position", i)
		}
		lists[i] = ks
	}
	return lists, nil
}

// placeable reports whether a fence may be inserted before the
// instruction (terminators and allocas are poor anchors; memory and
// arithmetic instructions are fine). The A-CFG's markers for a
// branch-only block and for an inlined call belong to no block, so
// nothing can be spliced before them.
func placeable(in *ir.Instr) bool {
	if in.Blk == nil {
		return false
	}
	switch in.Op {
	case ir.OpAlloca, ir.OpBr:
		return false
	}
	return true
}

// insertFenceBefore splices an lfence immediately before the instruction
// in its containing block.
func insertFenceBefore(target *ir.Instr) {
	b := target.Blk
	for i, in := range b.Instrs {
		if in == target {
			fence := &ir.Instr{Op: ir.OpFence, Sub: "lfence", Line: in.Line, Blk: b}
			b.Instrs = append(b.Instrs[:i], append([]*ir.Instr{fence}, b.Instrs[i:]...)...)
			return
		}
	}
}

// CountFences tallies lfence instructions in a module (for reporting).
func CountFences(m *ir.Module) int {
	n := 0
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpFence && in.Sub == "lfence" {
					n++
				}
			}
		}
	}
	return n
}
