package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeSrc drops a mini-C source into a temp dir and returns its path.
func writeSrc(t *testing.T, name, src string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const cleanSrc = `
uint8_t A[16];
uint8_t get(uint32_t y) {
	uint8_t x = A[0];
	return x;
}
`

// TestExitCodeContract pins the documented CLI exit codes, one scenario
// per code: 0 clean, 1 leaks, 2 usage/IO error, 3 partial/degraded.
func TestExitCodeContract(t *testing.T) {
	leaky := writeSrc(t, "leaky.c", spectreSrc)
	clean := writeSrc(t, "clean.c", cleanSrc)

	t.Run("0_clean", func(t *testing.T) {
		var out, errb bytes.Buffer
		if code := run([]string{clean}, &out, &errb); code != 0 {
			t.Fatalf("exit = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
		}
	})
	t.Run("1_leaks", func(t *testing.T) {
		var out, errb bytes.Buffer
		if code := run([]string{leaky}, &out, &errb); code != 1 {
			t.Fatalf("exit = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
		}
		if !strings.Contains(out.String(), "transmitter") {
			t.Error("exit 1 without a reported transmitter")
		}
	})
	t.Run("2_usage", func(t *testing.T) {
		for _, args := range [][]string{
			{},                          // missing file argument
			{"/no/such/file.c"},         // unreadable input
			{"-engine", "x", clean},     // unknown engine
			{"-nonsense-flag"},          // flag parse error
			{"-solver", "fresh", clean}, // retired solver mode
		} {
			var out, errb bytes.Buffer
			if code := run(args, &out, &errb); code != 2 {
				t.Errorf("run(%q) exit = %d, want 2", args, code)
			}
		}
	})
	t.Run("3_partial", func(t *testing.T) {
		// A 1ns budget exhausts every ladder rung deterministically: the
		// verdict is a sound unknown — no findings, but not clean either.
		var out, errb bytes.Buffer
		if code := run([]string{"-timeout", "1ns", leaky}, &out, &errb); code != 3 {
			t.Fatalf("exit = %d, want 3\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
		}
		if !strings.Contains(out.String(), "rung=unknown") {
			t.Errorf("degraded run does not report its rung:\n%s", out.String())
		}
	})
}

// spectreSrc is the canonical Spectre v1 victim (same shape as the
// detect package's fixture).
const spectreSrc = `
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
