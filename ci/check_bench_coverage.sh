#!/usr/bin/env sh
# Baseline freshness: every benchmark a bench binary registers must have
# an entry in its committed BENCH_*.json, and each file must parse as
# halfback-bench-v1. Without this, adding a benchmark without
# re-baselining leaves it permanently outside the perf gate — the
# --check filters in ci/check_bench.sh only guard benches the baseline
# knows about.
#
# Uses the harness's --baseline-covers mode: it registers every bench
# (no timing runs, so this job is build-bound, not bench-bound),
# validates the baseline schema, and exits 1 listing any bench missing
# from the file. Stale baseline entries whose bench no longer exists
# are a warning, not a failure: deleting a bench should not require a
# lockstep baseline edit to keep CI green.
#
# Usage: ci/check_bench_coverage.sh  (from the repo root)
set -eu

root=$(cd "$(dirname "$0")/.." && pwd)

cargo bench --bench engine -- --baseline-covers "$root/BENCH_netsim.json"

echo "OK: every registered benchmark has a committed baseline entry"
