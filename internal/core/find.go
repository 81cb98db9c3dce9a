package core

import (
	"sort"

	"lcm/internal/event"
	"lcm/internal/mcm"
)

// Finding is one leaky candidate execution: the execution graph (with both
// witnesses populated), the non-interference violations it exhibits, and
// the classified transmitters.
type Finding struct {
	Exec         *event.Graph
	Violations   []Violation
	Transmitters []Transmitter
}

// FindOptions configures end-to-end leakage detection.
type FindOptions struct {
	// Model is the consistency predicate for the architectural semantics
	// (default TSO, the paper's hard-coded choice §5.2).
	Model mcm.Model
	// Machine is the confidentiality predicate (default Permissive).
	Machine *Machine
	// Enumerate controls the microarchitectural search: when false, only
	// the interference-free witness of each consistent execution is
	// checked (sufficient for every attack of §4.2, since the deviations
	// there are between the speculative/observer comx and the architectural
	// com); when true, all machine-confidential witnesses are explored.
	Enumerate bool
	// Modes forwards to EnumerateOptions.Modes.
	Modes bool
	// WitnessLimit bounds witnesses per architectural execution.
	WitnessLimit int
	// Classify options.
	Classify ClassifyOptions
	// Stale forwards mcm.EnumerateOptions.StaleForwarding (default true:
	// the speculative semantics permits forwarding stale data, §3.3).
	NoStaleForwarding bool
}

func (o *FindOptions) defaults() {
	if o.Model == nil {
		o.Model = mcm.TSO{}
	}
	if o.Machine == nil {
		m := Permissive()
		o.Machine = &m
	}
	if o.WitnessLimit == 0 {
		o.WitnessLimit = 256
	}
}

// FindLeakage runs the full LCM pipeline on an event structure: enumerate
// consistent architectural executions (§2.2), extend each with
// microarchitectural witnesses (§3.2), evaluate the non-interference
// predicates (§4.1), and classify transmitters (Table 1). It returns one
// Finding per leaky execution.
func FindLeakage(es *event.Graph, opts FindOptions) []Finding {
	opts.defaults()
	var findings []Finding
	archs := mcm.ConsistentExecutions(es, opts.Model, mcm.EnumerateOptions{
		StaleForwarding: !opts.NoStaleForwarding,
	})
	for _, arch := range archs {
		if opts.Enumerate {
			EnumerateMicroarch(arch, *opts.Machine, EnumerateOptions{
				Modes: opts.Modes,
				Limit: opts.WitnessLimit,
			}, func(w *event.Graph) bool {
				if f, ok := analyze(w, opts); ok {
					findings = append(findings, f)
				}
				return true
			})
			continue
		}
		w := InterferenceFree(arch)
		if !opts.Machine.Confidential(w) {
			continue
		}
		if f, ok := analyze(w, opts); ok {
			findings = append(findings, f)
		}
	}
	return findings
}

// FindLeakageInProgramGraphs applies FindLeakage across a set of event
// structures (e.g. the speculative expansion of a program) and merges the
// findings.
func FindLeakageInProgramGraphs(structures []*event.Graph, opts FindOptions) []Finding {
	var out []Finding
	for _, es := range structures {
		out = append(out, FindLeakage(es, opts)...)
	}
	return out
}

func analyze(w *event.Graph, opts FindOptions) (Finding, bool) {
	vs := CheckNonInterference(w)
	if len(vs) == 0 {
		return Finding{}, false
	}
	ts := Classify(w, vs, opts.Classify)
	return Finding{Exec: w, Violations: vs, Transmitters: ts}, true
}

// Summarize aggregates transmitter counts by class across findings,
// deduplicating by (event label, class) so that the same static instruction
// reported in many executions counts once — the convention of Table 2.
func Summarize(findings []Finding) map[Class]int {
	type key struct {
		label string
		class Class
	}
	seen := make(map[key]bool)
	counts := make(map[Class]int)
	for _, f := range findings {
		for _, t := range f.Transmitters {
			ev := f.Exec.Events[t.Event]
			k := key{label: ev.Label + "|" + string(ev.Loc), class: t.Class}
			if seen[k] {
				continue
			}
			seen[k] = true
			counts[t.Class]++
		}
	}
	return counts
}

// TransmitterEvents returns the distinct transmitting event labels across
// findings, sorted, for reporting.
func TransmitterEvents(findings []Finding) []string {
	set := map[string]bool{}
	for _, f := range findings {
		for _, t := range f.Transmitters {
			ev := f.Exec.Events[t.Event]
			label := ev.Label
			if label == "" {
				label = ev.String()
			}
			set[label] = true
		}
	}
	var out []string
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}
