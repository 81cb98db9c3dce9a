package detect

// Differential check of condFeeders' inverted sweep against the per-branch
// scan it replaces: for every branch of every litmus case and cryptolib
// public function, the loads whose value flow reaches one of the branch's
// condition defs, in loads order.

import (
	"slices"
	"testing"

	"lcm/internal/acfg"
	"lcm/internal/cryptolib"
	"lcm/internal/ir"
	"lcm/internal/litmus"
)

// refCondFeeders is the reference: scan every load, per branch.
func refCondFeeders(fl *flowGraph, cn *acfg.Node, loads []*acfg.Node) []int {
	if len(cn.ArgDefs) == 0 {
		return nil
	}
	var accs []int
	for _, acc := range loads {
		r := fl.from(acc.ID)
		for _, condDef := range cn.ArgDefs[0] {
			if ok, _ := r.reaches(condDef); ok {
				accs = append(accs, acc.ID)
				break
			}
		}
	}
	return accs
}

func checkCondFeeders(t *testing.T, label string, m *ir.Module, fn string) {
	t.Helper()
	fe, err := buildFrontend(m, fn, acfg.Options{})
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	d := &detector{cfg: DefaultPHT(), g: fe.g, flow: fe.flow}
	d.indexNodes()
	for _, n := range fe.g.Nodes {
		if !n.IsBranch() {
			continue
		}
		if got, want := d.condFeeders(n.ID), refCondFeeders(fe.flow, n, d.loads); !slices.Equal(got, want) {
			t.Fatalf("%s: condFeeders(%d) = %v, per-branch scan %v", label, n.ID, got, want)
		}
	}
}

func TestCondFeedersMatchScanLitmus(t *testing.T) {
	for _, c := range litmus.All() {
		checkCondFeeders(t, c.Suite+"/"+c.Name, compile(t, c.Source), c.Fn)
	}
}

func TestCondFeedersMatchScanCryptolib(t *testing.T) {
	if testing.Short() {
		t.Skip("cryptolib graphs are large")
	}
	for _, lib := range cryptolib.All() {
		m := compile(t, lib.Source)
		for _, fn := range lib.PublicFuncs {
			checkCondFeeders(t, lib.Name+"/"+fn, m, fn)
		}
	}
}
