package presolve_test

// TestArchWitnessMatchesReference drives the arch-witness memo with the
// branch-free query traffic of real detector runs and checks every
// certificate against the per-query reference builder (archref_test.go).
// The traffic is each run's arch-witness certificates in emission order,
// followed by mixed queries — one query's first waypoint with the next
// query's last — which land on other take assignments, and, on litmus,
// on incomparable waypoints the builder must reject.

import (
	"testing"

	"lcm/internal/cryptolib"
	"lcm/internal/detect"
	"lcm/internal/ir"
	"lcm/internal/litmus"
	"lcm/internal/lower"
	"lcm/internal/minic"
	"lcm/internal/presolve"
)

func compileModule(t *testing.T, src string) *ir.Module {
	t.Helper()
	f, err := minic.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	m, err := lower.Module(f)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// checkArchTraffic analyzes fn under engine e and replays its arch
// queries through presolve.CheckArchWitnesses, returning the number of
// queries and of distinct replays.
func checkArchTraffic(t *testing.T, m *ir.Module, fn string, e detect.Engine) (int, int) {
	t.Helper()
	r, err := detect.AnalyzeFunc(m, fn, detect.DefaultConfig(e))
	if err != nil {
		t.Fatal(err)
	}
	var qs [][]int
	for _, c := range r.Certificates {
		if c.Kind == presolve.KindArchWitness {
			qs = append(qs, c.Arch.Nodes)
		}
	}
	for i, n := 0, len(qs); i+1 < n; i++ {
		next := qs[i+1]
		qs = append(qs, []int{qs[i][0], next[len(next)-1]})
	}
	replays, err := presolve.CheckArchWitnesses(r.Graph, qs)
	if err != nil {
		t.Fatalf("%s/%s: %v", fn, e, err)
	}
	return len(qs), replays
}

func TestArchWitnessMatchesReference(t *testing.T) {
	engines := []detect.Engine{detect.PHT, detect.STL, detect.PSF, detect.IMP, detect.SS}
	queries := 0
	for _, c := range litmus.All() {
		m := compileModule(t, c.Source)
		for _, e := range engines {
			n, _ := checkArchTraffic(t, m, c.Fn, e)
			queries += n
		}
	}
	if queries == 0 {
		t.Fatal("litmus issued no arch queries")
	}
	if testing.Short() {
		t.Skip("cryptolib graphs are large")
	}
	for _, lib := range cryptolib.All() {
		m := compileModule(t, lib.Source)
		for _, fn := range lib.PublicFuncs {
			for _, e := range []detect.Engine{detect.STL, detect.PSF, detect.SS} {
				n, replays := checkArchTraffic(t, m, fn, e)
				if n > 0 {
					t.Logf("%s/%s/%s: %d queries over %d replays", lib.Name, fn, e, n, replays)
				}
			}
		}
	}
}
