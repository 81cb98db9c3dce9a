package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// TestDotWitnessEveryEngine renders -dot witnesses for the fixture zoo
// under every engine. Each engine has findings there, so each run must
// print at least one witness graph and exit with the findings code; in
// particular the branch-free engines whose findings leave Store (IMP) or
// Load (SS) unset must re-ask their own node set, not a store/load pair.
func TestDotWitnessEveryEngine(t *testing.T) {
	zoo := filepath.Join("testdata", "zoo.c")
	for _, engine := range []string{"pht", "stl", "psf", "imp", "ss"} {
		t.Run(engine, func(t *testing.T) {
			var out, errb bytes.Buffer
			if code := run([]string{"-engine", engine, "-dot", zoo}, &out, &errb); code != exitFindings {
				t.Fatalf("exit = %d, want %d\nstderr:\n%s", code, exitFindings, errb.String())
			}
			if !strings.Contains(out.String(), "digraph") {
				t.Errorf("no witness graph in the output:\n%s", out.String())
			}
		})
	}
}
