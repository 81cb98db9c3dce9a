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
# parallel pipeline: the worker pool + process-wide caches (harness) and
# the frontend cache + detector (detect).
race-core:
	$(GO) test -race ./internal/harness ./internal/detect

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

check: vet fmt lint race-core
	$(GO) test ./internal/attacks ./internal/obsv ./internal/sat ./cmd/clou

# audit-presolve replays every statically discharged candidate through the
# full SAT encoding and fails on any disagreement — the soundness gate for
# the pre-solver's refutation and witness rules (see DESIGN.md).
audit-presolve: build
	$(GO) run ./cmd/clou -litmus all -audit-presolve

# fuzz gives each native fuzz target a short budget — enough to shake out
# shallow regressions in CI. Crashing inputs are written to testdata/fuzz/
# and become permanent regression seeds. For a real campaign, run a single
# target with -fuzz and no -fuzztime.
fuzz:
	$(GO) test -fuzz=FuzzMinicParse -fuzztime=10s ./internal/minic
	$(GO) test -fuzz=FuzzLower -fuzztime=10s ./internal/lower
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

# bench regenerates the evaluation sweeps in parallel and leaves a
# machine-readable artifact (workload → ns/op, workers, queries, cache
# hits). bench-all runs the full Go benchmark suite instead.
bench:
	$(GO) run ./cmd/benchjson -o BENCH_parallel.json

bench-all:
	$(GO) test -bench . -benchtime 1x ./...

# bench-smoke is the CI-scale sweep: litmus suites only, so it finishes in
# seconds while still exercising the frontend, both engines, the pre-solver,
# and the {1,8}-worker sweep. The artifact has the same shape as
# BENCH_parallel.json and is uploaded from CI for trend inspection.
# -assert-ablation gates the incremental residual path: a -nopresolve run
# more than 3x slower than its presolve counterpart on any measurable
# workload fails the job.
bench-smoke:
	$(GO) run ./cmd/benchjson -litmus-only -assert-ablation 3 -o BENCH_smoke.json

# profile captures CPU and allocation profiles for one benchmark
# (default: the heaviest end-to-end workload). Inspect with
#   go tool pprof -top cpu.out
# The benchmark's package is located from its name prefix; detect holds
# all current Benchmark* end-to-end targets.
BENCH ?= BenchmarkDetectDonna
PROFILE_COUNT ?= 3x
profile:
	$(GO) test ./internal/detect -run '^$$' -bench '^$(BENCH)$$' \
		-benchtime $(PROFILE_COUNT) -cpuprofile cpu.out -memprofile mem.out
	@echo "profiles written: cpu.out mem.out (go tool pprof -top cpu.out)"
