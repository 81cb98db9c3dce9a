package repair

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"lcm/internal/acfg"
	"lcm/internal/cryptolib"
	"lcm/internal/detect"
	"lcm/internal/ir"
	"lcm/internal/litmus"
	"lcm/internal/lower"
	"lcm/internal/minic"
	"lcm/internal/sat"
	"lcm/internal/smt"
)

func compile(t *testing.T, src string) *ir.Module {
	t.Helper()
	f, err := minic.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	m, err := lower.Module(f)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	return m
}

const spectreV1Src = `
uint8_t A[16];
uint8_t B[131072];
uint32_t size_A = 16;
uint8_t tmp;
void victim(uint32_t y) {
	if (y < size_A) {
		uint8_t x = A[y];
		tmp &= B[x * 512];
	}
}
`

func TestRepairSpectreV1WithOneFence(t *testing.T) {
	m := compile(t, spectreV1Src)
	res, err := Repair(m, "victim", detect.DefaultPHT(), 0)
	if err != nil {
		t.Fatalf("repair: %v", err)
	}
	if res.Remaining != 0 {
		t.Fatalf("leakage remains after repair: %d", res.Remaining)
	}
	// §6.1: one fence per vulnerable PHT program.
	if res.Fences != 1 {
		t.Errorf("fences = %d, want 1", res.Fences)
	}
	if CountFences(m) != res.Fences {
		t.Errorf("module fence count %d != reported %d", CountFences(m), res.Fences)
	}
	// Post-repair detection is clean.
	r, err := detect.AnalyzeFunc(m, "victim", detect.DefaultPHT())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Findings) != 0 {
		t.Errorf("findings after repair: %v", r.Findings)
	}
	// The program still behaves correctly.
	ip := ir.NewInterp(m)
	if _, err := ip.Call("victim", 3); err != nil {
		t.Errorf("repaired program broken: %v", err)
	}
}

func TestRepairSpectreV4(t *testing.T) {
	m := compile(t, `
		uint8_t A[16];
		uint8_t B[131072];
		uint8_t tmp;
		uint32_t idx_slot;
		void victim(uint32_t idx) {
			idx_slot = idx & 15;
			uint8_t x = A[idx_slot];
			tmp &= B[x * 512];
		}
	`)
	res, err := Repair(m, "victim", detect.DefaultSTL(), 0)
	if err != nil {
		t.Fatalf("repair: %v", err)
	}
	if res.Remaining != 0 {
		t.Fatalf("leakage remains: %d", res.Remaining)
	}
	// Our analysis finds the intended gadget plus the stack-spill bypass
	// (the STL01 phenomenon of §6.1: at -O0 the x spill/reload is itself a
	// bypassable store), which needs a second fence in a disjoint region.
	if res.Fences < 1 || res.Fences > 2 {
		t.Errorf("fences = %d, want 1-2", res.Fences)
	}
}

func TestRepairCleanProgramInsertsNothing(t *testing.T) {
	m := compile(t, `
		uint32_t ct_select(uint32_t mask, uint32_t a, uint32_t b) {
			return (a & mask) | (b & ~mask);
		}
	`)
	res, err := Repair(m, "ct_select", detect.DefaultPHT(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fences != 0 {
		t.Errorf("fences inserted in clean program: %d", res.Fences)
	}
}

func TestRepairTwoGadgets(t *testing.T) {
	// Two independent gadgets under two branches need two fences.
	m := compile(t, `
		uint8_t A[16];
		uint8_t B[131072];
		uint32_t size_A = 16;
		uint8_t tmp;
		void victim(uint32_t y, uint32_t z) {
			if (y < size_A) {
				uint8_t x = A[y];
				tmp &= B[x * 512];
			}
			if (z < size_A) {
				uint8_t w = A[z];
				tmp &= B[w * 512];
			}
		}
	`)
	res, err := Repair(m, "victim", detect.DefaultPHT(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Remaining != 0 {
		t.Fatalf("leakage remains: %d", res.Remaining)
	}
	if res.Fences < 2 || res.Fences > 3 {
		t.Errorf("fences = %d, want 2 (one per gadget; +1 tolerated for spill bypass)", res.Fences)
	}
}

// removeFenceAt deletes the i-th lfence (in block/instruction order) from
// the module and returns an undo closure restoring it in place.
func removeFenceAt(m *ir.Module, i int) func() {
	n := 0
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for k, in := range b.Instrs {
				if in.Op != ir.OpFence || in.Sub != "lfence" {
					continue
				}
				if n == i {
					b, k, in := b, k, in
					b.Instrs = append(b.Instrs[:k], b.Instrs[k+1:]...)
					return func() {
						b.Instrs = append(b.Instrs[:k], append([]*ir.Instr{in}, b.Instrs[k:]...)...)
					}
				}
				n++
			}
		}
	}
	return nil
}

// checkRepairMinimal asserts the §6.1 minimality claim on a repaired
// module: removing any single inserted fence re-introduces a violation.
func checkRepairMinimal(t *testing.T, m *ir.Module, fn string, cfg detect.Config, fences int) {
	t.Helper()
	for i := 0; i < fences; i++ {
		undo := removeFenceAt(m, i)
		if undo == nil {
			t.Fatalf("fence %d not found in repaired module", i)
		}
		res, err := detect.AnalyzeFunc(m, fn, cfg)
		undo()
		if err != nil {
			t.Fatalf("re-detect without fence %d: %v", i, err)
		}
		if len(res.Findings) == 0 {
			t.Errorf("fence %d is redundant: removing it leaves the program clean", i)
		}
	}
	// Sanity: with all fences restored the program is clean again.
	res, err := detect.AnalyzeFunc(m, fn, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Findings) != 0 {
		t.Fatalf("restored module is not clean: %v", res.Findings)
	}
}

// TestRepairMinimalityTwoGadgetsPHT: in a two-gadget PHT program every
// inserted fence is load-bearing — no strict subset suffices.
func TestRepairMinimalityTwoGadgetsPHT(t *testing.T) {
	m := compile(t, `
		uint8_t A[16];
		uint8_t B[131072];
		uint32_t size_A = 16;
		uint8_t tmp;
		void victim(uint32_t y, uint32_t z) {
			if (y < size_A) {
				uint8_t x = A[y];
				tmp &= B[x * 512];
			}
			if (z < size_A) {
				uint8_t w = A[z];
				tmp &= B[w * 512];
			}
		}
	`)
	cfg := detect.DefaultPHT()
	res, err := Repair(m, "victim", cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Remaining != 0 {
		t.Fatalf("leakage remains: %d", res.Remaining)
	}
	if res.Fences < 2 {
		t.Fatalf("fences = %d, want >= 2 (one per gadget)", res.Fences)
	}
	checkRepairMinimal(t, m, "victim", cfg, res.Fences)
}

// TestRepairPSF: the alias-forward gadget is repaired by a draining
// fence between the secret store and the steered transmitter, and the
// fence is load-bearing.
func TestRepairPSF(t *testing.T) {
	m := compile(t, `
		uint8_t sec_ary[16];
		uint8_t pub_ary[131072];
		uint32_t sec_slot;
		uint32_t pub_idx;
		uint8_t tmp;
		void victim(uint32_t idx) {
			sec_slot = sec_ary[idx & 15];
			uint32_t j = pub_idx;
			tmp &= pub_ary[(j & 255) * 512];
		}
	`)
	cfg := detect.DefaultPSF()
	res, err := Repair(m, "victim", cfg, 0)
	if err != nil {
		t.Fatalf("repair: %v", err)
	}
	if res.Remaining != 0 {
		t.Fatalf("leakage remains: %d", res.Remaining)
	}
	if res.Fences < 1 {
		t.Fatalf("fences = %d, want >= 1", res.Fences)
	}
	checkRepairMinimal(t, m, "victim", cfg, res.Fences)
}

// TestRepairIMP: the trained-walk gadget is repaired by a fence inside
// the loop body, which flushes the prefetcher's training every
// iteration.
func TestRepairIMP(t *testing.T) {
	m := compile(t, `
		uint8_t idx_ary[16];
		uint8_t data_ary[131072];
		uint8_t tmp;
		void victim(uint32_t n) {
			for (uint32_t i = 0; i < n; i++) {
				tmp &= data_ary[idx_ary[i & 7]];
			}
		}
	`)
	cfg := detect.DefaultIMP()
	res, err := Repair(m, "victim", cfg, 0)
	if err != nil {
		t.Fatalf("repair: %v", err)
	}
	if res.Remaining != 0 {
		t.Fatalf("leakage remains: %d", res.Remaining)
	}
	if res.Fences < 1 {
		t.Fatalf("fences = %d, want >= 1", res.Fences)
	}
	checkRepairMinimal(t, m, "victim", cfg, res.Fences)
}

// silentStoreSrc has a silent store and two returns, one per arm of a
// diamond.
const silentStoreSrc = `
uint8_t sec_ary[16];
uint32_t slot;
uint8_t tmp;
void victim(uint32_t idx) {
	slot = sec_ary[idx & 15];
	if (idx & 1) {
		tmp = 1;
		return;
	}
	tmp = 2;
}
`

// TestRepairSS: a silent store has no downstream transmitter — the
// repair is a serializing drain between the store and every return, and
// one well-placed fence covers both exits of a diamond.
func TestRepairSS(t *testing.T) {
	m := compile(t, silentStoreSrc)
	cfg := detect.DefaultSS()
	res, err := Repair(m, "victim", cfg, 0)
	if err != nil {
		t.Fatalf("repair: %v", err)
	}
	if res.Remaining != 0 {
		t.Fatalf("leakage remains: %d", res.Remaining)
	}
	if res.Fences < 1 {
		t.Fatalf("fences = %d, want >= 1", res.Fences)
	}
	checkRepairMinimal(t, m, "victim", cfg, res.Fences)
}

// TestRepairLitmusClean repairs every litmus case under every engine, and
// each must end clean. The A-CFG's markers (a branch-only block's
// pass-through, an inlined call's anchor) belong to no block, so a fence
// picked before one is never spliced: a repair that could pick them
// looped to the round limit with findings left, yet reported no error.
func TestRepairLitmusClean(t *testing.T) {
	for _, e := range detect.Engines() {
		for _, c := range litmus.All() {
			res, err := Repair(compile(t, c.Source), c.Fn, detect.DefaultConfig(e), 0)
			if err != nil || res.Remaining != 0 {
				t.Errorf("%s/%s: %+v, err %v", c.Name, e, res, err)
			}
		}
	}
}

// TestRepairMinimalityTwoGadgetsSTL: same claim under the store-bypass
// engine, with two independent masking-store/reload pairs.
func TestRepairMinimalityTwoGadgetsSTL(t *testing.T) {
	m := compile(t, `
		uint8_t A[16];
		uint8_t B[131072];
		uint8_t tmp;
		uint32_t slot_a;
		uint32_t slot_b;
		void victim(uint32_t y, uint32_t z) {
			slot_a = y & 15;
			uint8_t x = A[slot_a];
			tmp &= B[x * 512];
			slot_b = z & 15;
			uint8_t w = A[slot_b];
			tmp &= B[w * 512];
		}
	`)
	cfg := detect.DefaultSTL()
	res, err := Repair(m, "victim", cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Remaining != 0 {
		t.Fatalf("leakage remains: %d", res.Remaining)
	}
	if res.Fences < 2 {
		t.Fatalf("fences = %d, want >= 2 (one per masking store)", res.Fences)
	}
	checkRepairMinimal(t, m, "victim", cfg, res.Fences)
}

// refReaches is the reference reachability test: a fresh DFS per query.
func refReaches(g *acfg.Graph, from, to int) bool {
	if from == to {
		return true
	}
	seen := map[int]bool{from: true}
	stack := []int{from}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range g.Succs(n) {
			if s == to {
				return true
			}
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return false
}

// refCutsAllPaths is the reference cut test: whether every from→to path
// in the A-CFG crosses a node whose instruction is in.
func refCutsAllPaths(g *acfg.Graph, from, to int, in *ir.Instr) bool {
	if from == to {
		return false
	}
	seen := map[int]bool{from: true}
	stack := []int{from}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range g.Succs(n) {
			if g.Nodes[s].Instr == in {
				continue // path blocked here, the transmitter included
			}
			if s == to {
				return false
			}
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return true
}

// refSpans derives the findings' spans with refReaches.
func refSpans(res *detect.Result) []span {
	g := res.Graph
	var spans []span
	for _, f := range res.Findings {
		if f.Store >= 0 && f.Transmit == f.Store {
			for _, n := range g.Nodes {
				if n.Instr != nil && n.Instr.Op == ir.OpRet && refReaches(g, f.Store, n.ID) {
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
			from = f.Load
		}
		if from >= 0 {
			spans = append(spans, span{from, f.Transmit})
		}
	}
	return spans
}

// lowestNodes maps each instruction of g to the lowest node ID carrying it.
func lowestNodes(g *acfg.Graph) map[*ir.Instr]int {
	low := map[*ir.Instr]int{}
	for i := len(g.Nodes) - 1; i >= 0; i-- {
		if in := g.Nodes[i].Instr; in != nil {
			low[in] = i
		}
	}
	return low
}

// refCandidates collects the placeable instructions on some span's path
// with refReaches, ordered by printed form, then lowest carrying node ID.
func refCandidates(g *acfg.Graph, spans []span) []*ir.Instr {
	low := lowestNodes(g)
	set := map[*ir.Instr]bool{}
	for _, sp := range spans {
		for _, n := range g.Nodes {
			if n.Instr == nil || n.ID == sp.from || !placeable(n.Instr) {
				continue
			}
			if n.ID == sp.to || (refReaches(g, sp.from, n.ID) && refReaches(g, n.ID, sp.to)) {
				set[n.Instr] = true
			}
		}
	}
	var cands []*ir.Instr
	for in := range set {
		cands = append(cands, in)
	}
	sort.Slice(cands, func(i, j int) bool {
		a, b := cands[i].String(), cands[j].String()
		return a < b || a == b && low[cands[i]] < low[cands[j]]
	})
	return cands
}

// refMinimumK is the reference fence count: the smallest k for which a
// fresh solver finds k candidates (of n) meeting every list, asserted as
// one clause per list under a sequential-counter at-most-k (Sinz 2005).
func refMinimumK(lists [][]int, n int) int {
	for k := 1; k <= n; k++ {
		s := smt.NewSolver()
		x := make([]*smt.Expr, n)
		for j := range x {
			x[j] = s.Var(fmt.Sprintf("fence!%d", j))
		}
		for _, l := range lists {
			clause := make([]*smt.Expr, len(l))
			for i, j := range l {
				clause[i] = x[j]
			}
			s.Assert(smt.Or(clause...))
		}
		if k < n {
			// r(i, j): among x[0..i], at least j+1 are true.
			r := func(i, j int) *smt.Expr { return s.Var(fmt.Sprintf("r!%d!%d", i, j)) }
			s.Assert(smt.Or(smt.Not(x[0]), r(0, 0)))
			for j := 1; j < k; j++ {
				s.Assert(smt.Not(r(0, j)))
			}
			for i := 1; i < n; i++ {
				s.Assert(smt.Or(smt.Not(x[i]), r(i, 0)))
				s.Assert(smt.Or(smt.Not(r(i-1, 0)), r(i, 0)))
				for j := 1; j < k; j++ {
					s.Assert(smt.Or(smt.Not(x[i]), smt.Not(r(i-1, j-1)), r(i, j)))
					s.Assert(smt.Or(smt.Not(r(i-1, j)), r(i, j)))
				}
				s.Assert(smt.Or(smt.Not(x[i]), smt.Not(r(i-1, k-1))))
			}
		}
		if s.Check() == sat.Sat {
			return k
		}
	}
	return -1
}

// checkHits asserts that set is ascending, draws from the n candidates,
// and meets every list.
func checkHits(t *testing.T, name string, lists [][]int, n int, set []int) {
	t.Helper()
	if !slices.IsSorted(set) || len(set) > 0 && (set[0] < 0 || set[len(set)-1] >= n) {
		t.Fatalf("%s: hitting set %v is not ascending over %d candidates", name, set, n)
	}
	for _, l := range lists {
		if !slices.ContainsFunc(l, func(c int) bool { _, ok := slices.BinarySearch(set, c); return ok }) {
			t.Fatalf("%s: hitting set %v misses list %v", name, set, l)
		}
	}
}

// CheckHittingSet asserts that minimalFences' inputs for res — the spans,
// the candidate list and every span's kill list — equal the reference
// implementations', and that hittingSet meets every kill list with as
// many candidates as the reference per-k loop needs. The external test
// package drives it over progen programs, which this package cannot
// import.
func CheckHittingSet(t *testing.T, name string, res *detect.Result) {
	t.Helper()
	g := res.Graph
	spans := findingSpans(res)
	if want := refSpans(res); !reflect.DeepEqual(spans, want) {
		t.Fatalf("%s: spans %v, reference %v", name, spans, want)
	}
	if len(spans) == 0 {
		return
	}
	cands := candidates(g, spans)
	if want := refCandidates(g, spans); !reflect.DeepEqual(cands, want) {
		t.Fatalf("%s: candidates %v, reference %v", name, cands, want)
	}
	want := make([][]int, len(spans))
	wantErr := -1
	for i, sp := range spans {
		for j, in := range cands {
			if refCutsAllPaths(g, sp.from, sp.to, in) {
				want[i] = append(want[i], j)
			}
		}
		if len(want[i]) == 0 && wantErr < 0 {
			wantErr = i
		}
	}
	got, err := killLists(context.Background(), g, spans, cands)
	if wantErr >= 0 {
		if msg := fmt.Sprintf("repair: finding %d has no cutting position", wantErr); err == nil || err.Error() != msg {
			t.Fatalf("%s: kill lists error %v, reference %q", name, err, msg)
		}
		return
	}
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: kill lists %v (err %v), reference %v", name, got, err, want)
	}
	set := hittingSet(got)
	checkHits(t, name, got, len(cands), set)
	if k := refMinimumK(got, len(cands)); len(set) != k {
		t.Fatalf("%s: hitting set %v has %d candidates, reference minimum %d", name, set, len(set), k)
	}
}

// bruteMinimum is the size of a smallest subset of the n candidates that
// meets every list, by enumerating all 2^n subsets.
func bruteMinimum(lists [][]int, n int) int {
	best := n
	for mask := uint(0); mask < 1<<n; mask++ {
		if bits.OnesCount(mask) < best && !slices.ContainsFunc(lists, func(l []int) bool {
			return !slices.ContainsFunc(l, func(c int) bool { return mask&(1<<c) != 0 })
		}) {
			best = bits.OnesCount(mask)
		}
	}
	return best
}

// TestHittingSetRandom holds hittingSet to brute force on random
// instances of at most 10 candidates, where branching is common: few
// progen or litmus repairs get past the dominance reduction.
func TestHittingSetRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		n := 1 + rng.Intn(10)
		lists := make([][]int, 1+rng.Intn(12))
		for li := range lists {
			for c := 0; c < n; c++ {
				if rng.Intn(3) == 0 {
					lists[li] = append(lists[li], c)
				}
			}
			if len(lists[li]) == 0 {
				lists[li] = []int{rng.Intn(n)}
			}
		}
		name := fmt.Sprintf("instance %d %v", i, lists)
		set := hittingSet(lists)
		checkHits(t, name, lists, n, set)
		if want := bruteMinimum(lists, n); len(set) != want {
			t.Fatalf("%s: hitting set %v, brute-force minimum %d", name, set, want)
		}
	}
}

// TestHittingSetKernels pins hand-built instances: a triangle and a
// four-cycle, which no dominance reduction settles, need two and (with a
// forced candidate) three; a chain of nested lists needs one. Candidates
// that meet the same lists leave the lowest index. Every call returns the
// same set.
func TestHittingSetKernels(t *testing.T) {
	for _, c := range []struct {
		lists [][]int
		n     int
		want  int
	}{
		{[][]int{{0, 1}, {1, 2}, {0, 2}}, 3, 2},
		{[][]int{{0, 1}, {2, 3}, {0, 2}, {1, 3}, {4}}, 5, 3},
		{[][]int{{0, 1, 2}, {1, 2}, {1, 2, 3}}, 4, 1},
	} {
		name := fmt.Sprint(c.lists)
		first := hittingSet(c.lists)
		checkHits(t, name, c.lists, c.n, first)
		if len(first) != c.want {
			t.Errorf("%s: hitting set %v, want %d candidates", name, first, c.want)
		}
		if k := refMinimumK(c.lists, c.n); k != c.want {
			t.Errorf("%s: reference minimum %d, want %d", name, k, c.want)
		}
		for i := 0; i < 20; i++ {
			if again := hittingSet(c.lists); !reflect.DeepEqual(again, first) {
				t.Fatalf("%s: call %d returned %v, first call %v", name, i, again, first)
			}
		}
	}
	if got := hittingSet([][]int{{1, 2}, {1, 2}}); !reflect.DeepEqual(got, []int{1}) {
		t.Errorf("equal candidates 1 and 2: hitting set %v, want [1]", got)
	}
}

// cryptoModule compiles the named corpus library.
func cryptoModule(t *testing.T, lib string) *ir.Module {
	t.Helper()
	l, ok := cryptolib.Lookup(lib)
	if !ok {
		t.Fatalf("no library %q", lib)
	}
	return compile(t, l.Source)
}

// TestRepairMEECBC: mee_cbc_decrypt under Clou-stl repairs clean with 13
// fences, the minimum the per-k solver loop could not reach in minutes.
func TestRepairMEECBC(t *testing.T) {
	m := cryptoModule(t, "mee-cbc")
	res, err := Repair(m, "mee_cbc_decrypt", detect.DefaultSTL(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fences != 13 || res.Remaining != 0 {
		t.Errorf("repair %+v, want 13 fences and 0 remaining", res)
	}
}

// TestRepairCtxDeadlineBindsFenceMinimisation: crypto_secretbox_open under
// Clou-ss spends nearly all of its repair in the kill lists, which check
// the context between spans, so a deadline ends the repair promptly.
func TestRepairCtxDeadlineBindsFenceMinimisation(t *testing.T) {
	m := cryptoModule(t, "secretbox")
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	start := time.Now()
	_, err := RepairCtx(ctx, m, "crypto_secretbox_open", detect.DefaultSS(), 0)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("repair returned %v after the start, deadline 2s", d)
	}
}

// TestCandidateOrderTwoReturns: the two returns of a function print alike
// ("ret void") and are both Clou-ss candidates; they are ordered by the
// lowest A-CFG node carrying each, on every call.
func TestCandidateOrderTwoReturns(t *testing.T) {
	m := compile(t, silentStoreSrc)
	res, err := detect.AnalyzeFunc(m, "victim", detect.DefaultSS())
	if err != nil {
		t.Fatal(err)
	}
	g := res.Graph
	low := lowestNodes(g)
	spans := findingSpans(res)
	first := candidates(g, spans)
	var rets []int
	for _, in := range first {
		if in.Op == ir.OpRet {
			rets = append(rets, low[in])
		}
	}
	if len(rets) != 2 || rets[0] >= rets[1] {
		t.Fatalf("ret candidates at lowest nodes %v, want two in ascending order", rets)
	}
	for i := 0; i < 20; i++ {
		if again := candidates(g, spans); !reflect.DeepEqual(again, first) {
			t.Fatalf("call %d: candidate order %v, first call %v", i, again, first)
		}
	}
	CheckHittingSet(t, "two-returns", res)
}
