#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root,
# passing every argument through:
#
#   bash bench/run.sh --workload crypto --seed 1 --seconds 26 --trace 0
#   bash bench/run.sh -runs 3 -o base.json        # all workloads, 3 runs each
#   bash bench/run.sh -compare base.json new.json
#
# The Go build cache, the binary, and everything a run writes stay under
# .bench_build/ in the checkout. Outside a full checkout (no ../go.mod for
# the replace directive) the build fails and the script exits non-zero.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/home" "$build/config"

export GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOENV=off GOFLAGS= CGO_ENABLED=0
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
# The go command keeps telemetry counters under the user's config
# directory; point it inside the checkout too.
export HOME="$build/home" XDG_CONFIG_HOME="$build/config"

(cd "$root/bench" && go build -o "$build/bench" .)
cd "$root"
exec "$build/bench" "$@"
