package detect

import (
	"fmt"
	"testing"

	"lcm/internal/core"
	"lcm/internal/cryptolib"
	"lcm/internal/presolve"
)

// TestAddCertKeepsFirstPerKey pins the certificate dedup: the pre-solver
// derives every query afresh, so a repeated query yields a new
// certificate with the key of one already emitted. addCert must keep the
// first and hand it back, so that an audit disagreement on the repeat
// flags the certificate the result carries.
func TestAddCertKeepsFirstPerKey(t *testing.T) {
	d := &detector{res: &Result{}}
	first := &presolve.Certificate{Kind: presolve.KindWindow, Key: "window|b=1|t=2|e=|a="}
	other := &presolve.Certificate{Kind: presolve.KindInBounds, Key: "in-bounds|n=2"}
	repeat := &presolve.Certificate{Kind: presolve.KindWindow, Key: first.Key}
	for _, c := range []*presolve.Certificate{first, other} {
		if got := d.addCert(c); got != c {
			t.Fatalf("addCert(%s) returned another certificate", c.Key)
		}
	}
	if got := d.addCert(repeat); got != first {
		t.Errorf("addCert of a repeated key returned %p, want the first certificate %p", got, first)
	}
	if len(d.res.Certificates) != 2 || d.res.Certificates[0] != first || d.res.Certificates[1] != other {
		t.Errorf("retained %d certificates, want the first two in emission order", len(d.res.Certificates))
	}
}

// TestAuditPresolveWindowRefutations replays the pre-solver's window
// refutations through the SAT encoding. The litmus and progen corpora emit
// no window certificates, so this is the one subject where the audit
// checks the refutation rule: mee-cbc's decrypt under Clou-pht with the
// crypto corpus's universal classes refutes hundreds of cross-arm queries.
func TestAuditPresolveWindowRefutations(t *testing.T) {
	lib, ok := cryptolib.Lookup("mee-cbc")
	if !ok {
		t.Fatal("mee-cbc corpus entry missing")
	}
	cfg := DefaultPHT()
	cfg.Transmitters = []core.Class{core.UDT, core.UCT}
	cfg.AuditPresolve = true
	r := analyze(t, lib.Source, "mee_cbc_decrypt", cfg)
	windows := 0
	for _, c := range r.Certificates {
		if c.Kind != presolve.KindWindow {
			continue
		}
		windows++
		if err := c.Check(); err != nil {
			t.Errorf("%s: %v", c.Key, err)
		}
	}
	if windows == 0 {
		t.Fatal("no window certificates: the audit replayed no refutation")
	}
	if r.PresolveAudited == 0 {
		t.Fatal("audit replayed no decision")
	}
	if r.PresolveDisagreements != 0 {
		t.Errorf("%d of %d audited decisions disagree with the solver", r.PresolveDisagreements, r.PresolveAudited)
	}
	t.Logf("window certificates=%d audited=%d", windows, r.PresolveAudited)
}

// TestAuditPresolveArchWitnesses replays the pre-solver's arch witnesses
// on the crypto corpus's heaviest Clou-stl subjects, with universal
// classes, where every candidate query is arch-witnessed: donna's
// Montgomery ladder and secretbox's open. Each witness must be one the
// solver also answers Sat. The witnesses share their replayed paths:
// certificates of one path alias one path slice, so there are as many
// slices as distinct paths, and fewer than witnesses.
func TestAuditPresolveArchWitnesses(t *testing.T) {
	for _, subj := range []struct{ lib, fn string }{
		{"donna", "crypto_scalarmult"},
		{"secretbox", "crypto_secretbox_open"},
	} {
		t.Run(subj.lib, func(t *testing.T) {
			lib, ok := cryptolib.Lookup(subj.lib)
			if !ok {
				t.Fatalf("%s corpus entry missing", subj.lib)
			}
			cfg := DefaultSTL()
			cfg.Transmitters = []core.Class{core.UDT, core.UCT}
			cfg.AuditPresolve = true
			r := analyze(t, lib.Source, subj.fn, cfg)
			arch := 0
			paths, pathSlices := map[string]bool{}, map[*int]bool{}
			for _, c := range r.Certificates {
				if c.Kind != presolve.KindArchWitness {
					continue
				}
				arch++
				if err := c.Check(); err != nil {
					t.Errorf("%s: %v", c.Key, err)
				}
				paths[fmt.Sprint(c.Arch.Path)] = true
				pathSlices[&c.Arch.Path[0]] = true
			}
			if arch == 0 {
				t.Fatal("no arch-witness certificates: the audit replayed no witness")
			}
			if r.PresolveAudited < arch {
				t.Fatalf("audit replayed %d decisions, fewer than the %d arch witnesses", r.PresolveAudited, arch)
			}
			if r.PresolveDisagreements != 0 {
				t.Errorf("%d of %d audited decisions disagree with the solver", r.PresolveDisagreements, r.PresolveAudited)
			}
			if len(pathSlices) >= arch {
				t.Errorf("%d arch witnesses in %d path slices: no replay is shared", arch, len(pathSlices))
			}
			if len(pathSlices) != len(paths) {
				t.Errorf("%d distinct paths replayed into %d path slices: want one replay per path", len(paths), len(pathSlices))
			}
			t.Logf("arch-witness certificates=%d paths=%d path slices=%d audited=%d", arch, len(paths), len(pathSlices), r.PresolveAudited)
		})
	}
}
