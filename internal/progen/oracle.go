package progen

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"lcm/internal/aeg"
	"lcm/internal/detect"
	"lcm/internal/ir"
	"lcm/internal/lower"
	"lcm/internal/minic"
	"lcm/internal/repair"
	"lcm/internal/simdiff"
	"lcm/internal/uarch"
)

// Failure is one oracle violation. Oracle names are stable identifiers —
// they are recorded in regression files and drive replay.
type Failure struct {
	Oracle string // e.g. "repair-pht", "meta-dead", "diff-enum", "uarch"
	Detail string
	Src    string
	Seed   int64
	Index  int
}

func (f Failure) Error() string {
	return fmt.Sprintf("%s (seed %d index %d): %s", f.Oracle, f.Seed, f.Index, f.Detail)
}

// Oracles lists every oracle family member in a fixed order. "compile",
// "uarch", and "presolve" run on all programs, "repair-*" on leaky ones
// (one per detection engine), "meta-*" wherever a rewrite applies, and
// "diff-enum"/"diff-sim" on gadget subjects only.
func Oracles() []string {
	return []string{"compile",
		"repair-pht", "repair-stl", "repair-psf", "repair-imp", "repair-ss",
		"meta-alpha", "meta-dead", "meta-reorder", "presolve", "uarch",
		"diff-enum", "diff-sim"}
}

// conformCfg is the detection configuration all oracles share. LSQ and
// Wsize are raised well above any generated program's instruction count:
// the metamorphic rewrites insert and reorder instructions, and a verdict
// must not flip because a candidate pair drifted across a queue-capacity
// boundary — the invariant is about the leak, not the queue geometry.
func conformCfg(e detect.Engine) detect.Config {
	cfg := detect.DefaultConfig(e)
	cfg.AEG = aeg.Options{ROB: 250, LSQ: 250, Wsize: 250}
	cfg.Timeout = 60 * time.Second
	return cfg
}

// engineTag is the short engine name used in oracle names and count keys
// ("pht", "stl", "psf", "imp", "ss").
func engineTag(e detect.Engine) string {
	return strings.TrimPrefix(e.String(), "clou-")
}

func compileSrc(src string) (*ir.Module, error) {
	f, err := minic.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	m, err := lower.Module(f)
	if err != nil {
		return nil, fmt.Errorf("lower: %w", err)
	}
	return m, nil
}

// Verdict is a program's classification under both engines.
type Verdict struct {
	// Counts maps "pht/UDT"-style keys to per-class transmitter counts.
	Counts  map[string]int
	Leak    bool
	Nodes   int // PHT S-AEG size
	Queries int
	// Rung is the weakest degradation-ladder rung either engine's
	// analysis was decided at (detect.RungFull when nothing degraded);
	// Failure names the fault kind behind the final downgrade.
	Rung    detect.Rung
	Failure string
}

// Unknown reports that at least one engine's analysis exhausted the
// whole ladder: the program's classification is a sound "don't know".
func (v Verdict) Unknown() bool { return v.Rung == detect.RungUnknown }

// subject is one program as Check's oracles read it: the source, its
// entry function, the module lowered from that source once, and one
// detect.Cache through which every analysis of the module shares one
// frontend and one range pruner. The module is never mutated — the cache
// keys on its pointer — so the repair oracle, which inserts fences,
// works on a private copy. full holds, per engine, the analysis classify
// decided at full precision, which the oracles read instead of analysing
// again.
type subject struct {
	src, fn string
	m       *ir.Module
	cache   *detect.Cache
	full    map[detect.Engine]*detect.Result
}

func newSubject(src, fn string) (*subject, error) {
	m, err := compileSrc(src)
	if err != nil {
		return nil, err
	}
	return &subject{src: src, fn: fn, m: m, cache: detect.NewCache()}, nil
}

// analyze returns the subject's analysis under e at full precision:
// classify's, when it decided e there, else a fresh one.
func (s *subject) analyze(e detect.Engine) (*detect.Result, error) {
	if res := s.full[e]; res != nil {
		return res, nil
	}
	return detect.AnalyzeFunc(s.m, s.fn, s.cfg(e))
}

// cfg is conformCfg(e) reading the subject's cache.
func (s *subject) cfg(e detect.Engine) detect.Config {
	cfg := conformCfg(e)
	cfg.Cache = s.cache
	return cfg
}

// classify compiles src and classifies its fn (see subject.classify).
func classify(src, fn string) (Verdict, error) {
	s, err := newSubject(src, fn)
	if err != nil {
		return Verdict{Counts: map[string]int{}}, err
	}
	return s.classify()
}

// classify analyzes the subject under every engine through the
// degradation ladder, merges class counts, and keeps each full-rung
// result in s.full. A fault at full precision degrades the verdict's rung
// instead of failing the program; only genuine errors (non-analyzable
// input) are returned.
func (s *subject) classify() (Verdict, error) {
	v := Verdict{Counts: map[string]int{}}
	s.full = map[detect.Engine]*detect.Result{}
	for _, e := range detect.Engines() {
		res, err := detect.AnalyzeFuncLadder(context.Background(), s.m, s.fn, s.cfg(e))
		if err != nil {
			return v, fmt.Errorf("detect %v: %w", e, err)
		}
		if res.Rung == detect.RungFull {
			s.full[e] = res
		}
		if res.Rung > v.Rung {
			v.Rung, v.Failure = res.Rung, res.Failure
		}
		if res.Rung == detect.RungUnknown {
			continue
		}
		name := engineTag(e)
		for class, n := range res.Counts() {
			v.Counts[name+"/"+class.String()] = n
		}
		if len(res.Findings) > 0 {
			v.Leak = true
		}
		if e == detect.PHT {
			v.Nodes, v.Queries = res.NodeCount, res.Queries
		}
	}
	return v, nil
}

func countsString(c map[string]int) string {
	keys := make([]string, 0, len(c))
	for k := range c {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%d", k, c[k])
	}
	if len(parts) == 0 {
		return "clean"
	}
	return strings.Join(parts, " ")
}

func countsEqual(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// uarchInputs are the fixed argument vectors the architectural oracles
// replay: in-bounds, arbitrary, and boundary-adjacent attacker inputs.
var uarchInputs = [][2]uint64{{0, 0}, {3, 0x12345678}, {0xfffffff0, 22}, {15, 16}}

// archGlobals are the scalar globals whose final state the architectural
// oracles compare (width in bytes).
var archGlobals = []struct {
	name string
	size int
}{{"tmp", 1}, {"slot", 4}, {"pub0", 4}, {"pub1", 4}}

// callArgs trims an input vector to fn's actual arity: free-form programs
// take two attacker-controlled words, gadget subjects only one.
func callArgs(m *ir.Module, fn string, in [2]uint64) []uint64 {
	n := 2
	if f := m.Func(fn); f != nil && len(f.Params) < n {
		n = len(f.Params)
	}
	args := make([]uint64, n)
	copy(args, in[:n])
	return args
}

// archState runs fn under the reference interpreter on one input vector
// and summarizes return value plus observable global state.
func archState(m *ir.Module, fn string, in [2]uint64) (string, error) {
	ip := ir.NewInterp(m)
	ret, err := ip.Call(fn, callArgs(m, fn, in)...)
	if err != nil {
		return "", err
	}
	return archSummary(ret, func(name string) (uint64, bool) {
		addr, ok := ip.GlobalAddr(name)
		if !ok {
			return 0, false
		}
		return addr, true
	}, func(addr uint64, size int) uint64 { return ip.Mem.Load(addr, size) }), nil
}

func archSummary(ret uint64, globalAddr func(string) (uint64, bool), load func(uint64, int) uint64) string {
	s := fmt.Sprintf("ret=%d", ret)
	for _, g := range archGlobals {
		if addr, ok := globalAddr(g.name); ok {
			s += fmt.Sprintf(" %s=%d", g.name, load(addr, g.size))
		}
	}
	return s
}

// sourceOracles are the oracles after "compile" that replay from source
// alone, in the order Check runs them.
var sourceOracles = []string{
	"repair-pht", "repair-stl", "repair-psf", "repair-imp", "repair-ss",
	"meta-alpha", "meta-dead", "meta-reorder", "presolve", "uarch"}

// RunOracle replays one named oracle over bare source, on a subject of
// its own; a metamorphic oracle classifies its own base. It returns nil
// when the oracle passes or does not apply. Compile errors inside
// non-compile oracles return nil — a program that stops compiling no
// longer reproduces anything; the "compile" oracle itself owns frontend
// breakage (including the Parse(Print(p)) round-trip).
func RunOracle(name, src, fn string) *Failure {
	if name == "compile" {
		_, f := compileOracle(src)
		return f
	}
	if !slices.Contains(sourceOracles, name) {
		return nil
	}
	s, err := newSubject(src, fn)
	if err != nil {
		return nil
	}
	var base Verdict
	if strings.HasPrefix(name, "meta-") {
		if base, err = s.classify(); err != nil {
			return nil
		}
	}
	return s.oracle(name, base)
}

// compileOracle checks that src is a normalize fixed point and compiles,
// and returns the lowered module.
func compileOracle(src string) (*ir.Module, *Failure) {
	if _, err := normalize(src); err != nil {
		return nil, &Failure{Oracle: "compile", Detail: err.Error(), Src: src}
	}
	m, err := compileSrc(src)
	if err != nil {
		return nil, &Failure{Oracle: "compile", Detail: err.Error(), Src: src}
	}
	return m, nil
}

// oracle runs one of sourceOracles over the subject. base is the
// subject's own verdict, which the metamorphic oracles compare against.
func (s *subject) oracle(name string, base Verdict) *Failure {
	switch name {
	case "repair-pht":
		return s.repairOracle(detect.PHT)
	case "repair-stl":
		return s.repairOracle(detect.STL)
	case "repair-psf":
		return s.repairOracle(detect.PSF)
	case "repair-imp":
		return s.repairOracle(detect.IMP)
	case "repair-ss":
		return s.repairOracle(detect.SS)
	case "meta-alpha", "meta-dead", "meta-reorder":
		return s.metaOracle(strings.TrimPrefix(name, "meta-"), base)
	case "presolve":
		return s.presolveOracle()
	case "uarch":
		return s.uarchOracle()
	}
	return nil
}

// presolveOracle cross-checks the static pre-solver (internal/presolve)
// against the solver on one program, under both engines:
//
//  1. findings with the pre-solver enabled must be identical to findings
//     with it disabled (the discharge rules change cost, never verdicts);
//  2. an audit run — every discharged candidate replayed through the full
//     SAT encoding — must report zero disagreements; and
//  3. every emitted certificate must pass its structural self-check.
//
// Programs that time out or degrade are skipped: a budget abort makes the
// enabled/disabled query sequences diverge legitimately.
func (s *subject) presolveOracle() *Failure {
	for _, engine := range detect.Engines() {
		tag := engineTag(engine)
		cfg := s.cfg(engine)
		with, err := s.analyze(engine)
		if err != nil || with.TimedOut || with.Fault != nil {
			return nil
		}
		off := cfg
		off.NoPresolve = true
		without, err := detect.AnalyzeFunc(s.m, s.fn, off)
		if err != nil || without.TimedOut || without.Fault != nil {
			return nil
		}
		if !countsEqual(countsOf(with), countsOf(without)) {
			return &Failure{Oracle: "presolve", Src: s.src,
				Detail: fmt.Sprintf("%s: findings differ with pre-solver on/off: %s -> %s",
					tag, countsString(countsOf(without)), countsString(countsOf(with)))}
		}
		audit := cfg
		audit.AuditPresolve = true
		au, err := detect.AnalyzeFunc(s.m, s.fn, audit)
		if err != nil || au.TimedOut || au.Fault != nil {
			return nil
		}
		if au.PresolveDisagreements > 0 {
			return &Failure{Oracle: "presolve", Src: s.src,
				Detail: fmt.Sprintf("%s: audit found %d disagreement(s) over %d replayed discharge(s)",
					tag, au.PresolveDisagreements, au.PresolveAudited)}
		}
		for _, cert := range with.Certificates {
			if err := cert.Check(); err != nil {
				return &Failure{Oracle: "presolve", Src: s.src,
					Detail: fmt.Sprintf("%s: certificate fails self-check: %v", tag, err)}
			}
		}
	}
	return nil
}

// countsOf renders a result's per-class transmitter counts with string
// keys, for countsEqual/countsString.
func countsOf(res *detect.Result) map[string]int {
	out := map[string]int{}
	for class, n := range res.Counts() {
		out[class.String()] = n
	}
	return out
}

// repairOracle checks the §5.4 soundness claim: after fence insertion,
// re-detection under the same engine finds nothing, and the repaired
// program is architecturally unchanged on every replay input.
func (s *subject) repairOracle(engine detect.Engine) *Failure {
	name := "repair-" + engineTag(engine)
	res, err := s.analyze(engine)
	if err != nil || res.TimedOut || len(res.Findings) == 0 {
		return nil // clean programs have nothing to repair
	}
	baseline := make([]string, len(uarchInputs))
	for i, in := range uarchInputs {
		st, err := archState(s.m, s.fn, in)
		if err != nil {
			return nil // program not runnable (should not happen for generated subjects)
		}
		baseline[i] = st
	}
	// Repair inserts fences, so it runs on a private copy of the module,
	// uncached, never on the subject's shared one.
	m, err := compileSrc(s.src)
	if err != nil {
		return nil
	}
	fn, cfg := s.fn, conformCfg(engine)
	preFences := repair.CountFences(m)
	rr, err := repair.Repair(m, fn, cfg, 0)
	if err != nil {
		return &Failure{Oracle: name, Src: s.src,
			Detail: fmt.Sprintf("repair failed on %d finding(s): %v", len(res.Findings), err)}
	}
	if rr.Remaining != 0 {
		return &Failure{Oracle: name, Src: s.src,
			Detail: fmt.Sprintf("%d finding(s) remain after %d fences / %d rounds", rr.Remaining, rr.Fences, rr.Rounds)}
	}
	if got := repair.CountFences(m); got != preFences+rr.Fences {
		return &Failure{Oracle: name, Src: s.src,
			Detail: fmt.Sprintf("module has %d fences, expected %d pre-existing + %d inserted", got, preFences, rr.Fences)}
	}
	post, err := detect.AnalyzeFunc(m, fn, cfg)
	if err != nil {
		return &Failure{Oracle: name, Src: s.src, Detail: fmt.Sprintf("re-detect: %v", err)}
	}
	if len(post.Findings) != 0 {
		return &Failure{Oracle: name, Src: s.src,
			Detail: fmt.Sprintf("re-detection finds %d transmitter(s) after a clean repair", len(post.Findings))}
	}
	for i, in := range uarchInputs {
		st, err := archState(m, fn, in)
		if err != nil {
			return &Failure{Oracle: name, Src: s.src,
				Detail: fmt.Sprintf("repaired program broken on input %v: %v", in, err)}
		}
		if st != baseline[i] {
			return &Failure{Oracle: name, Src: s.src,
				Detail: fmt.Sprintf("fences changed architectural state on input %v: %s -> %s", in, baseline[i], st)}
		}
	}
	return nil
}

// stableCounts filters a verdict's count map down to the engines whose
// candidate sets are invariant under the metamorphic rewrites. PHT and
// STL candidates are anchored in control and data dependence, which
// alpha-renaming, dead code, and reordering preserve. The taxonomy
// engines (psf/imp/ss) are order-sensitive by design: store/load program
// order decides which pairs can alias-forward, a dead store is a real
// silent-store channel, and reordering changes which load pairs form a
// trainable walk — the rewrites preserve architectural semantics but not
// microarchitectural leakage, which is exactly why fences repair them.
func stableCounts(c map[string]int) map[string]int {
	out := map[string]int{}
	for k, v := range c {
		if strings.HasPrefix(k, "pht/") || strings.HasPrefix(k, "stl/") {
			out[k] = v
		}
	}
	return out
}

// metaOracle checks verdict invariance under one semantics-preserving
// rewrite: per-class transmitter counts must match exactly for the
// rewrite-stable engines (see stableCounts).
func (s *subject) metaOracle(rewrite string, base Verdict) *Failure {
	name := "meta-" + rewrite
	rewritten, applied, err := ApplyRewrite(rewrite, s.src, s.fn)
	if err != nil {
		return &Failure{Oracle: name, Src: s.src,
			Detail: fmt.Sprintf("rewrite produced invalid program: %v", err)}
	}
	if !applied {
		return nil
	}
	after, err := classify(rewritten, s.fn)
	if err != nil {
		return &Failure{Oracle: name, Src: s.src,
			Detail: fmt.Sprintf("rewritten program does not analyze: %v\nrewritten:\n%s", err, rewritten)}
	}
	if !countsEqual(stableCounts(base.Counts), stableCounts(after.Counts)) {
		return &Failure{Oracle: name, Src: s.src,
			Detail: fmt.Sprintf("verdict changed: %s -> %s\nrewritten:\n%s",
				countsString(stableCounts(base.Counts)), countsString(stableCounts(after.Counts)), rewritten)}
	}
	return nil
}

// uarchOracle checks that the speculative machine (store bypass, IMP,
// store buffering all enabled) agrees architecturally with the reference
// interpreter — speculation must be side-channel-only.
func (s *subject) uarchOracle() *Failure {
	m, fn := s.m, s.fn
	for _, in := range uarchInputs {
		want, err := archState(m, fn, in)
		if err != nil {
			return &Failure{Oracle: "uarch", Src: s.src,
				Detail: fmt.Sprintf("interp failed on input %v: %v", in, err)}
		}
		ma := uarch.New(m, uarch.Config{StoreBypass: true, IMP: true, StoreBufferDepth: 4})
		ret, err := ma.Call(fn, callArgs(m, fn, in)...)
		if err != nil {
			return &Failure{Oracle: "uarch", Src: s.src,
				Detail: fmt.Sprintf("machine failed on input %v: %v", in, err)}
		}
		got := archSummary(ret, func(name string) (uint64, bool) {
			return ma.GlobalAddr(name)
		}, func(addr uint64, size int) uint64 { return ma.Mem.Load(addr, size) })
		if got != want {
			return &Failure{Oracle: "uarch", Src: s.src,
				Detail: fmt.Sprintf("architectural divergence on input %v: interp %s, machine %s", in, want, got)}
		}
	}
	return nil
}

// knownDivergences pins documented enum-vs-Clou verdict differences by
// gadget template (the part of the name before the first '/'), in the
// style of internal/attacks/diff_test.go. Each entry records the semantic
// gap behind the disagreement; the oracle asserts the divergence still
// happens exactly as recorded, and fails when the verdicts start to agree
// so the table must shrink with the fix.
var knownDivergences = map[string]string{
	// The litmus IR has no mask semantics: the faithful rendering of
	// `tmp &= A[y & 15]` is an attacker-indexed xstate access, which the
	// enumerator flags as a committed data transmitter. Clou's range
	// analysis (internal/dataflow) proves the masked index in-bounds and
	// prunes the candidate, so the mini-C side is clean — the same
	// precision gap as upstream Clou's pht06 false positive (§6.1).
	"safe-masked": "litmus rendering cannot express index masking; enumeration flags the access, range analysis discharges it",
}

// diffOracle cross-checks Clou's verdict on a gadget subject against the
// gadget's independent reference: bounded candidate-execution enumeration
// of its litmus rendering ("diff-enum"), or — for the taxonomy shapes the
// litmus IR cannot express — two-secret distinguishability on the uarch
// simulator with the transmitter on and off ("diff-sim").
func (s *subject) diffOracle(g *Gadget) *Failure {
	if g == nil {
		return nil
	}
	oracle := "diff-enum"
	if g.Prog == nil {
		oracle = "diff-sim"
	}
	m := s.m
	res, err := s.analyze(g.Engine)
	if err != nil {
		return &Failure{Oracle: oracle,
			Detail: fmt.Sprintf("gadget %s: detect failed: %v", g.Name, err)}
	}
	if res.TimedOut {
		return &Failure{Oracle: oracle,
			Detail: fmt.Sprintf("gadget %s: detect timed out", g.Name)}
	}
	clouLeak := len(res.Findings) > 0

	var refLeak bool
	switch {
	case g.Prog != nil:
		refLeak = g.EnumLeaks()
	case g.Sim != nil:
		on, err := simdiff.Distinguishes(m, g.SimOn, *g.Sim)
		if err != nil {
			return &Failure{Oracle: oracle,
				Detail: fmt.Sprintf("gadget %s: simulator run failed: %v", g.Name, err)}
		}
		off, err := simdiff.Distinguishes(m, g.SimOff, *g.Sim)
		if err != nil {
			return &Failure{Oracle: oracle,
				Detail: fmt.Sprintf("gadget %s: simulator run failed: %v", g.Name, err)}
		}
		if off {
			return &Failure{Oracle: oracle,
				Detail: fmt.Sprintf("gadget %s: residue depends on the secret with the transmitter disabled", g.Name)}
		}
		refLeak = on
	default:
		return nil
	}

	template := g.Name
	if i := strings.IndexByte(template, '/'); i >= 0 {
		template = template[:i]
	}
	if _, pinned := knownDivergences[template]; pinned {
		if clouLeak != refLeak {
			return nil // documented divergence, still present
		}
		return &Failure{Oracle: oracle,
			Detail: fmt.Sprintf("gadget %s: verdicts now agree; remove %q from knownDivergences", g.Name, template)}
	}
	if clouLeak != refLeak {
		return &Failure{Oracle: oracle,
			Detail: fmt.Sprintf("gadget %s: Clou leak=%v but reference leak=%v with no documented divergence", g.Name, clouLeak, refLeak)}
	}
	return nil
}

// Check runs every applicable oracle over p and reports the program's
// verdict plus any failures, each tagged with p's seed and index. The
// oracles after "compile" share one subject: one lowered module, one
// frontend cache, and the verdict computed here as the metamorphic base.
func Check(p Program) (Verdict, []Failure) {
	m, f := compileOracle(p.Src)
	if f != nil {
		f.Seed, f.Index = p.Seed, p.Index
		return Verdict{Counts: map[string]int{}}, []Failure{*f}
	}
	s := &subject{src: p.Src, fn: p.Fn, m: m, cache: detect.NewCache()}
	return s.check(p)
}

// check is Check after the compile oracle passed, over p's subject s.
func (s *subject) check(p Program) (Verdict, []Failure) {
	var fails []Failure
	add := func(f *Failure) {
		if f != nil {
			f.Seed, f.Index = p.Seed, p.Index
			if f.Src == "" {
				f.Src = p.Src
			}
			fails = append(fails, *f)
		}
	}
	v, err := s.classify()
	if err != nil {
		add(&Failure{Oracle: "compile", Detail: err.Error()})
		return v, fails
	}
	for _, name := range sourceOracles {
		add(s.oracle(name, v))
	}
	add(s.diffOracle(p.Gadget))
	return v, fails
}
