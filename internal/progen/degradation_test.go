package progen

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestDegradationReplay re-runs every pinned entry in
// testdata/degradations/ through the ladder. Curated replay=budget
// entries must reproduce their recorded rung and verdict exactly under
// the recorded budgets; organic replay=none entries (deadline-caused,
// not reproducible) must still compile and be decided without an error.
func TestDegradationReplay(t *testing.T) {
	dir := filepath.Join("testdata", "degradations")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Skipf("no degradation corpus: %v", err)
	}
	ran := 0
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".c") {
			continue
		}
		ran++
		t.Run(e.Name(), func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			d, err := ParseDegradation(data)
			if err != nil {
				t.Fatalf("bad degradation header: %v", err)
			}
			rung, verdict, err := ReplayDegradation(d)
			if err != nil {
				t.Fatalf("ladder failed to decide the pinned program: %v", err)
			}
			if d.Replay != "budget" {
				return // organic entry: deciding without an error is the contract
			}
			if rung != d.Rung {
				t.Errorf("rung = %s, want %s", rung, d.Rung)
			}
			if verdict != d.Verdict {
				t.Errorf("verdict = %s, want %s", verdict, d.Verdict)
			}
		})
	}
	if ran == 0 {
		t.Skip("degradation corpus is empty")
	}
}

// TestWriteDegradationRoundTrip: a written degradation entry parses back
// to the same rung, fault, and verdict, with the source intact.
func TestWriteDegradationRoundTrip(t *testing.T) {
	dir := t.TempDir()
	r := ProgramResult{
		Index:   3,
		Verdict: "leak",
		Rung:    "triage",
		Failure: "deadline",
	}
	src := "uint8_t A[16];\nvoid victim(uint32_t y) {\n\tA[y] = 1;\n}\n"
	if err := WriteDegradation(dir, src, r, 9); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "triage-seed9-idx3.c"))
	if err != nil {
		t.Fatal(err)
	}
	d, err := ParseDegradation(data)
	if err != nil {
		t.Fatal(err)
	}
	if d.Rung != "triage" || d.Fault != "deadline" || d.Verdict != "leak" || d.Replay != "none" {
		t.Fatalf("round trip lost fields: %+v", d)
	}
	if !strings.Contains(d.Src, "victim") {
		t.Fatalf("source lost in round trip:\n%s", d.Src)
	}
}
