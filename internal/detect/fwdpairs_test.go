package detect

// The forwarding engines' pair walk against the stores × loads scan it
// replaced, and the role-bounded rows against the two-bitset BFS that
// filled an LSQ and a Wsize set for every source. Both references are the
// old code, kept here: the scan probes cfgReach and the LSQ set for every
// (store, load) pair, in store order and then load order.

import (
	"context"
	"slices"
	"testing"

	"lcm/internal/acfg"
	"lcm/internal/aeg"
	"lcm/internal/cryptolib"
	"lcm/internal/dataflow"
	"lcm/internal/ir"
	"lcm/internal/litmus"
	"lcm/internal/lower"
	"lcm/internal/minic"
)

// refNear is one source's bounded-distance sets, as the two-bitset BFS
// computed them for every store and load.
type refNear struct {
	lsq dataflow.BitSet // nodes within LSQ hops of the source
	win dataflow.BitSet // nodes within Wsize hops of the source
}

// refBfsDist runs a level-synchronous BFS out to the larger bound; the
// set of the larger bound doubles as the visited set.
func refBfsDist(g *acfg.Graph, from, lsqB, winB int) refNear {
	ns := refNear{lsq: dataflow.NewBitSet(g.Len()), win: dataflow.NewBitSet(g.Len())}
	seen, bound := ns.lsq, lsqB
	if winB > lsqB {
		seen, bound = ns.win, winB
	}
	ns.lsq.Set(from)
	ns.win.Set(from)
	frontier, next := []int{from}, []int(nil)
	for depth := 1; depth <= bound && len(frontier) > 0; depth++ {
		next = next[:0]
		for _, n := range frontier {
			for _, s := range g.Succs(n) {
				if seen.Has(s) {
					continue
				}
				if depth <= lsqB {
					ns.lsq.Set(s)
				}
				if depth <= winB {
					ns.win.Set(s)
				}
				next = append(next, s)
			}
		}
		frontier, next = next, frontier
	}
	return ns
}

// refForwardPairs is the stores × loads scan with the pair filter as it
// was: cfgReach, then the engine's alias test and the LSQ set.
func refForwardPairs(d *detector, psf bool, near map[int]refNear) (pairs []fwdPair, candidates, pruned int) {
	for _, s := range d.stores {
		for _, l := range d.loads {
			if !d.cfgReach(s.ID, l.ID) {
				continue
			}
			within := near[s.ID].lsq.Has(l.ID)
			if psf {
				if !within || mustAliasExact(s, l) {
					continue
				}
				candidates++
			} else {
				if !d.al.MayAliasTransient(s, l) || !within {
					continue
				}
				candidates++
				if _, _, ok := d.pruner.DisjointPair(s.Instr, l.Instr); ok {
					pruned++
					continue
				}
			}
			pairs = append(pairs, fwdPair{s.ID, l.ID})
		}
	}
	return pairs, candidates, pruned
}

// fwdBounds are the (LSQ, Wsize) settings the check runs under: the
// defaults (Wsize > LSQ), LSQ > Wsize, and bounds small enough that an
// off-by-one shows on litmus-sized graphs.
var fwdBounds = []aeg.Options{{}, {LSQ: 120, Wsize: 40}, {LSQ: 3, Wsize: 5}}

// checkForwardPairs requires, for one function of m under every fwdBounds
// setting, that Clou-stl's and Clou-psf's pair walks list the scan's
// pairs in the scan's order with the scan's Candidates and Pruned, and
// that every store's row is the reference's LSQ set and every load's row
// its Wsize set.
func checkForwardPairs(t testing.TB, label string, m *ir.Module, fn string) {
	t.Helper()
	fe, err := buildFrontend(m, fn, nil)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	pruner := dataflow.NewPruner(m)
	for _, opts := range fwdBounds {
		a := aeg.Build(fe.g, fe.al, opts)
		lsqB, winB := a.Opts.LSQ, a.Opts.Wsize
		near := map[int]refNear{}
		for _, e := range []Engine{STL, PSF} {
			cfg := DefaultConfig(e)
			cfg.AEG = opts
			d := &detector{
				ctx: context.Background(), cfg: cfg, g: fe.g, al: fe.al, a: a, flow: fe.flow,
				cfgReach: fe.cfgReach, pruner: pruner, res: &Result{},
			}
			d.indexNodes()
			if len(near) == 0 {
				for _, n := range slices.Concat(d.stores, d.loads) {
					near[n.ID] = refBfsDist(fe.g, n.ID, lsqB, winB)
				}
			}
			got, ok := d.forwardPairs(e == PSF)
			if !ok {
				t.Fatalf("%s %s LSQ=%d Wsize=%d: pair walk ran out of budget", label, e, lsqB, winB)
			}
			want, cands, pruned := refForwardPairs(d, e == PSF, near)
			if !slices.Equal(got, want) {
				t.Fatalf("%s %s LSQ=%d Wsize=%d: pair walk lists %d pairs, scan %d (first difference at %d)",
					label, e, lsqB, winB, len(got), len(want), firstDiff(got, want))
			}
			if d.res.Candidates != cands || d.res.Pruned != pruned {
				t.Fatalf("%s %s LSQ=%d Wsize=%d: Candidates/Pruned %d/%d, scan %d/%d",
					label, e, lsqB, winB, d.res.Candidates, d.res.Pruned, cands, pruned)
			}
			for _, n := range slices.Concat(d.stores, d.loads) {
				want := near[n.ID].win
				if n.IsStore() {
					want = near[n.ID].lsq
				}
				if !slices.Equal(d.near(n), want) {
					t.Fatalf("%s LSQ=%d Wsize=%d: row of node %d differs from the reference", label, lsqB, winB, n.ID)
				}
			}
		}
	}
}

func firstDiff(a, b []fwdPair) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}

func TestForwardPairsMatchReferenceLitmus(t *testing.T) {
	for _, c := range litmus.All() {
		checkForwardPairs(t, c.Suite+"/"+c.Name, compile(t, c.Source), c.Fn)
	}
}

func TestForwardPairsMatchReferenceCryptolib(t *testing.T) {
	if testing.Short() {
		t.Skip("cryptolib graphs are large")
	}
	for _, lib := range cryptolib.All() {
		m := compile(t, lib.Source)
		for _, fn := range lib.PublicFuncs {
			checkForwardPairs(t, lib.Name+"/"+fn, m, fn)
		}
	}
}

// FuzzForwardPairs runs the pair, row, reach, feeder-sweep and range-rule
// reference checks on every function of any input that lowers and builds.
// Run with `make fuzz` or `go test -fuzz=FuzzForwardPairs ./internal/detect`.
func FuzzForwardPairs(f *testing.F) {
	for _, seed := range []string{
		"int f(void) { return 0; }",
		"uint8_t t[256];\nint v1(long i, long n) { if (i < n) { return t[i] * 2; } return 0; }",
		"struct P { int x; int y; };\nint dot(struct P *a, struct P *b) { return a->x * b->x + a->y * b->y; }",
		"int sum(int *a, int n) { int s = 0; for (int i = 0; i < n; i++) { s += a[i]; } return s; }",
		"int g;\nvoid w(int x) { g = x ? sizeof(long) : -x; }",
		"static long mix(long a, long b) { return (a << 7) ^ (b >> 3) ^ (a & b); }",
		"char buf[8];\nvoid cpy(char *src) { int i = 0; do { buf[i] = src[i]; i++; } while (src[i]); }",
		"int g(int x){return x+1;} int f(int x){return g(x);} int A[16]; int top(int y){int v=f(y); return A[v];}",
		"int h(int x){ if (x) return 1; return x; } int k(int y){ return h(y) + h(y+1); }",
		"uint64_t arr[8];\nuint64_t g;\nuint64_t d;\nvoid st(uint64_t v) { uint64_t j = g & 1; arr[0] = v; d = arr[2]; d = arr[j + 1]; }",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		file, err := minic.Parse(src)
		if err != nil {
			return
		}
		m, err := lower.Module(file)
		if err != nil {
			return
		}
		for _, fn := range m.Funcs {
			if fn.IsDecl() {
				continue
			}
			if _, err := acfg.Build(m, fn.Nm, acfg.Options{}); err != nil {
				continue
			}
			checkForwardPairs(t, "fuzz/"+fn.Nm, m, fn.Nm)
			diffFlowFunc(t, "fuzz", m, fn.Nm)
			checkFeeders(t, "fuzz/"+fn.Nm, m, fn.Nm)
			checkRangeFacts(t, "fuzz/"+fn.Nm, m, fn.Nm)
		}
	})
}
