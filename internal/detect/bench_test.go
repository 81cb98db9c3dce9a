package detect

// Frontend and end-to-end benchmarks over the two heaviest cryptolib
// subjects. The frontend benchmarks isolate its stages — the A-CFG build,
// points-to solving, the reachability closures, and value-flow
// construction plus cold feeder sweeps —
// while BenchmarkDetectDonna runs Clou-pht and Clou-stl over both
// subjects, the two functions on the crypto benchmark's critical path,
// and BenchmarkEngineCensus the taxonomy engines over the crypto corpus.
// `make profile BENCH=BenchmarkDetectDonna` captures a CPU profile.

import (
	"context"
	"testing"

	"lcm/internal/acfg"
	"lcm/internal/alias"
	"lcm/internal/cryptolib"
	"lcm/internal/ir"
)

// benchSubjects are the corpus entries the frontend benchmarks sweep.
var benchSubjects = []struct {
	lib string
	fn  string
}{
	{"donna", "crypto_scalarmult"},
	{"secretbox", "crypto_secretbox_open"},
}

// benchGraph builds the subject's A-CFG once, outside the timed loop.
func benchGraph(b *testing.B, libName, fn string) *acfg.Graph {
	b.Helper()
	lib, ok := cryptolib.Lookup(libName)
	if !ok {
		b.Fatalf("corpus entry %q missing", libName)
	}
	m := compile(b, lib.Source)
	g, err := acfg.Build(m, fn, acfg.Options{})
	if err != nil {
		b.Fatalf("acfg: %v", err)
	}
	return g
}

func BenchmarkFrontendACFG(b *testing.B) {
	for _, s := range benchSubjects {
		s := s
		b.Run(s.lib, func(b *testing.B) {
			lib, ok := cryptolib.Lookup(s.lib)
			if !ok {
				b.Fatalf("corpus entry %q missing", s.lib)
			}
			m := compile(b, lib.Source)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := acfg.Build(m, s.fn, acfg.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFrontendAlias(b *testing.B) {
	for _, s := range benchSubjects {
		s := s
		b.Run(s.lib, func(b *testing.B) {
			g := benchGraph(b, s.lib, s.fn)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				alias.Analyze(g)
			}
		})
	}
}

// BenchmarkFrontendReach times the A-CFG's reachability closures, Reach
// and FenceFreeReach, as the frontend's reach stage builds them. Each
// closure is built once per graph, so every iteration builds a fresh graph
// with the timer stopped.
func BenchmarkFrontendReach(b *testing.B) {
	for _, s := range benchSubjects {
		s := s
		b.Run(s.lib, func(b *testing.B) {
			lib, ok := cryptolib.Lookup(s.lib)
			if !ok {
				b.Fatalf("corpus entry %q missing", s.lib)
			}
			m := compile(b, lib.Source)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				g, err := acfg.Build(m, s.fn, acfg.Options{})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				g.Reach()
				g.FenceFreeReach()
			}
		})
	}
}

// BenchmarkFrontendFlow times value-flow construction alone (build) and
// construction plus a cold run of the two relations Clou-pht reads
// (sweep): loads → memory nodes over address defs and loads → branches
// over condition defs, on a fresh detector, as each benchmark pass pays
// them.
func BenchmarkFrontendFlow(b *testing.B) {
	for _, s := range benchSubjects {
		g := benchGraph(b, s.lib, s.fn)
		al := alias.Analyze(g)
		g.Reach()
		var branches []*acfg.Node
		for _, n := range g.Nodes {
			if n.IsBranch() {
				branches = append(branches, n)
			}
		}
		for _, sweep := range []bool{false, true} {
			name := s.lib + "/build"
			if sweep {
				name = s.lib + "/sweep"
			}
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					fg, err := buildFlowGraph(g, al)
					if err != nil {
						b.Fatal(err)
					}
					if !sweep {
						continue
					}
					d := &detector{ctx: context.Background(), g: g, flow: fg, res: &Result{}}
					d.indexNodes()
					d.feeders(d.loads, d.mems, addrDefs)
					d.feeders(d.loads, branches, valueDefs)
				}
			})
		}
	}
}

func BenchmarkDetectDonna(b *testing.B) {
	for _, s := range benchSubjects {
		lib, ok := cryptolib.Lookup(s.lib)
		if !ok {
			b.Fatalf("corpus entry %q missing", s.lib)
		}
		m := compile(b, lib.Source)
		for _, eng := range []struct {
			name string
			mk   func() Config
		}{{"pht", DefaultPHT}, {"stl", DefaultSTL}} {
			b.Run(s.lib+"/"+eng.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := AnalyzeFunc(m, s.fn, eng.mk()); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkEngineCensus runs Clou-imp and Clou-ss, each with its
// DefaultConfig, serially over every crypto public function: the
// taxonomy engines' cost on real-shaped code, which the pht/stl
// benchmarks do not cover.
func BenchmarkEngineCensus(b *testing.B) {
	type subject struct {
		m  *ir.Module
		fn string
	}
	var subjects []subject
	for _, lib := range cryptolib.All() {
		m := compile(b, lib.Source)
		for _, fn := range lib.PublicFuncs {
			subjects = append(subjects, subject{m, fn})
		}
	}
	for _, e := range []Engine{IMP, SS} {
		b.Run(e.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, s := range subjects {
					if _, err := AnalyzeFunc(s.m, s.fn, DefaultConfig(e)); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
