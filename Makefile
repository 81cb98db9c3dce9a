GO ?= go

.PHONY: all build test race race-core check vet fmt lint audit-presolve bench bench-all bench-smoke profile fuzz conform chaos crash-chaos cover

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# race-core exercises the packages with real shared state under the
# parallel pipeline: the worker pool (the only level of parallelism) and
# the process-wide caches (harness), the frontend cache whose A-CFG
# order, closures and pre-solver facts concurrent detectors fill once and
# share (detect), the lazily built, shared chain closures themselves
# (acfg), and the multi-process campaign waves (cmd/clou).
race-core:
	$(GO) test -race ./internal/harness ./internal/detect ./internal/acfg ./cmd/clou

vet:
	$(GO) vet ./...

# fmt fails if any file needs reformatting (CI-style gofmt gate).
fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed:"; echo "$$out"; exit 1; \
	fi

# lint runs the in-tree determinism analyzer (tools/determlint): it flags
# map-range loops whose iteration order can reach reports, encodings, or
# candidate enumeration without being sorted first.
lint:
	$(GO) run ./tools/determlint ./...

# bench is its own module (bench/go.mod), so `go test ./...` from the root
# never builds it; check vets and tests it explicitly, since it reads the
# analyzer's metrics counters by name.
check: vet fmt lint race-core
	$(GO) test ./internal/attacks ./internal/obsv ./internal/sat ./cmd/clou
	cd bench && $(GO) vet . && $(GO) test .

# audit-presolve replays every statically discharged candidate through the
# full SAT encoding and fails on any disagreement — the soundness gate for
# the pre-solver's refutation and witness rules (see DESIGN.md). The litmus
# suites emit no window refutations, so the mee-cbc test replays those; the
# arch-witness test replays the crypto corpus's Clou-stl arch witnesses on
# donna (3314 over 178 distinct paths) and secretbox (788 over 12), whose
# certificates share their replayed paths. The conservation test checks the
# decide step's accounting: over every litmus case and engine, the
# pre-solver-on run's solver plus skipped queries and the audited run's
# queries both equal the pre-solver-off run's queries. Range certificates
# (in-bounds, stl-disjoint) package the pruner's own facts, and audit
# Checks each one by arithmetic; the range reference test requires the
# pruner's decisions and certificates to equal the old bool rules and
# certificate mirror on every access and forwarding pair of litmus, crypto
# and progen.
audit-presolve: build
	$(GO) run ./cmd/clou -litmus all -audit-presolve
	$(GO) test ./internal/detect -run '^(TestAuditPresolveWindowRefutations|TestAuditPresolveArchWitnesses|TestQueryConservationAcrossPresolveModes|TestRangeFactsMatchReference)$$' -count=1 -v

# fuzz gives each native fuzz target a short budget — enough to shake out
# shallow regressions in CI. Crashing inputs are written to testdata/fuzz/
# and become permanent regression seeds. For a real campaign, run a single
# target with -fuzz and no -fuzztime.
fuzz:
	$(GO) test -fuzz=FuzzMinicParse -fuzztime=10s ./internal/minic
	$(GO) test -fuzz=FuzzLower -fuzztime=10s ./internal/lower
	$(GO) test -fuzz=FuzzACFGBuild -fuzztime=10s ./internal/acfg
	$(GO) test -fuzz=FuzzForwardPairs -fuzztime=10s ./internal/detect
	$(GO) test -fuzz=FuzzIncrementalSolve -fuzztime=10s ./internal/sat

# conform runs the seeded conformance campaign (internal/progen): generate
# CONFORM_N programs under CONFORM_SEED, run the repair-soundness,
# metamorphic, architectural, and differential oracles on each. Oracle
# failures are ddmin-shrunk into internal/progen/testdata/regressions/
# where TestRegressionReplay replays them on every plain `go test`.
# CONFORM_STORE names a campaign store directory: the campaign persists
# there as it runs, and rerunning with the same directory resumes it.
CONFORM_N ?= 200
CONFORM_SEED ?= 1
CONFORM_STORE ?=
conform:
	$(GO) test ./internal/progen -run 'TestConformRun|TestRegressionReplay|TestDegradationReplay' -v \
		-conform.n $(CONFORM_N) -conform.seed $(CONFORM_SEED) \
		$(if $(CONFORM_STORE),-conform.store $(CONFORM_STORE)) \
		-timeout 30m

# chaos runs the fault-injection campaign (internal/chaos) under the race
# detector: CHAOS_N generated programs through both engines with the
# deterministic fault plan (CHAOS_FAULT_SEED, CHAOS_RATE) armed. The test
# asserts the robustness contract — no crashes, no lost inputs, identical
# -j1/-j8 reports, and every injected fault reconciled in the metrics.
CHAOS_N ?= 100
CHAOS_RATE ?= 0.3
CHAOS_SEED ?= 1
CHAOS_FAULT_SEED ?= 7
chaos:
	$(GO) test -race ./internal/chaos -run TestChaosCampaign -count=1 -v \
		-chaos.n $(CHAOS_N) -chaos.rate $(CHAOS_RATE) \
		-chaos.seed $(CHAOS_SEED) -chaos.fault-seed $(CHAOS_FAULT_SEED) \
		-timeout 30m

# crash-chaos runs the campaign-store kill campaign under the race
# detector: worker processes are SIGKILLed at seeded instruction
# boundaries inside every WAL and compaction critical section (≥50
# kills), and the store must lose no committed verdict, re-run every
# abandoned claim, and report byte-identically to an uninterrupted run.
# TestStoreChaosIO additionally drives the store under an armed
# injection plan so every io fault is classified and recoverable.
crash-chaos:
	$(GO) test -race ./internal/chaos -run 'TestStoreKillCampaign|TestStoreChaosIO' -count=1 -v \
		-timeout 30m

# cover writes per-package coverage profiles and prints the summary for
# the packages with documented baselines (see README).
cover:
	$(GO) test -coverprofile=cover.out ./...
	@$(GO) tool cover -func=cover.out | tail -1
	@for p in internal/detect internal/lower internal/repair internal/progen; do \
		$(GO) test -coverprofile=cover.$$(basename $$p).out ./$$p >/dev/null && \
		echo "$$p: $$($(GO) tool cover -func=cover.$$(basename $$p).out | tail -1 | awk '{print $$3}')"; \
	done

# bench runs every workload of the repository benchmark (bench/, see
# bench/README.md) once and writes the runs file that
# `bash bench/run.sh -compare` reads, machine fingerprint included.
# bench-all runs the full Go benchmark suite instead.
bench:
	bash bench/run.sh -o BENCH_runs.json

bench-all:
	$(GO) test -bench . -benchtime 1x ./...

# bench-smoke is CI's pre-solver ablation gate: a short crypto run and a
# short crypto-nopresolve run, where every candidate query reaches the
# incremental solver. Each run's result line goes to BENCH_smoke.json
# (one JSON object a line), and the job fails unless both runs are
# correct with no failed analysis and the -nopresolve pass_s is at most
# 3x the presolve one. Absolute times from shared runners are too noisy
# to gate on; the ratio of two runs on the same machine is not.
bench-smoke:
	@rm -f BENCH_smoke.json
	@for w in crypto crypto-nopresolve; do \
		out="$$(bash bench/run.sh --workload $$w --seconds 3)" || exit 1; \
		printf '%s\n' "$$out"; \
		printf '%s\n' "$$out" | tail -n 1 >> BENCH_smoke.json; \
	done
	@jq -e -r -s '(.[1].metrics.pass_s.value / .[0].metrics.pass_s.value) as $$r | "correct=\(map(.correct)) failed=\(map(.failed)) ablation ratio \($$r) (bound 3)", (length == 2 and all(.[]; .correct == true and .failed == 0) and $$r <= 3)' BENCH_smoke.json

# profile captures CPU and allocation profiles for one benchmark
# (default: the heaviest end-to-end workload). Inspect with
#   go tool pprof -top cpu.out
# The benchmark's package is located as the one whose tests define
# func $(BENCH)( — e.g. BENCH=BenchmarkMinimalFencesConform profiles
# internal/repair.
BENCH ?= BenchmarkDetectDonna
PROFILE_COUNT ?= 3x
profile:
	@pkg=$$(grep -rl --include='*_test.go' --exclude-dir=bench --exclude-dir=.bench_build \
		'func $(BENCH)(' . | head -1 | xargs -r dirname); \
	test -n "$$pkg" || { echo "profile: no package defines func $(BENCH)(" >&2; exit 2; }; \
	echo "$(GO) test $$pkg -bench '^$(BENCH)$$'"; \
	$(GO) test $$pkg -run '^$$' -bench '^$(BENCH)$$' \
		-benchtime $(PROFILE_COUNT) -cpuprofile cpu.out -memprofile mem.out
	@echo "profiles written: cpu.out mem.out (go tool pprof -top cpu.out)"
