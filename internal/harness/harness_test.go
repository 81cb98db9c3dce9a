package harness

import (
	"os"
	"testing"
	"time"
)

func TestLitmusRows(t *testing.T) {
	for _, suite := range []string{"pht", "stl", "fwd", "new"} {
		rows, err := RunLitmusSuite(suite, Options{FuncTimeout: 10 * time.Second})
		if err != nil {
			t.Fatalf("%s: %v", suite, err)
		}
		if len(rows) < 2 {
			t.Fatalf("%s: rows = %d", suite, len(rows))
		}
		for _, r := range rows {
			t.Log(r.Format())
		}
	}
}

func TestFig8Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("fig8 in -short mode")
	}
	pts, err := RunFig8(Options{FuncTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if !MonotoneTrend(pts) {
		t.Error("runtime does not grow with S-AEG size")
	}
	WriteFig8(os.Stderr, pts[:5])
}

// TestFig8RunsUncached pins that Fig. 8's analyses neither read nor fill
// the process-wide frontend cache: a cache hit would drop the frontend
// from a point's runtime.
func TestFig8RunsUncached(t *testing.T) {
	hits, misses := analysisCache.Stats()
	if _, err := RunFig8(Options{FuncTimeout: 10 * time.Second}); err != nil {
		t.Fatal(err)
	}
	if h, m := analysisCache.Stats(); h != hits || m != misses {
		t.Errorf("RunFig8 moved the frontend cache from %d hits, %d misses to %d, %d", hits, misses, h, m)
	}
}
