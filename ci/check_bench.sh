#!/usr/bin/env sh
# Perf smoke: run the engine benchmarks and compare each median against
# the committed baseline (BENCH_netsim.json at the repo root). End-to-end
# timings live in hbbench (benchmark/), which runs the repro CLI itself.
# The bench harness's --check mode fails (exit 1) if any benchmark is
# more than 1.3x slower than its baseline median. The harness takes the minimum of per-block medians
# across the sample stream (see crates/bench, "Noise handling"), which
# absorbs shared-runner noise bursts well enough that 1.3x holds the
# line where the old plain-median gate needed 2x headroom — tight
# enough to catch a reintroduced per-packet allocation, not just an
# O(n log n) -> O(n^2) blowup.
#
# The harness also exits nonzero if a filter below matches no
# benchmark, so a renamed bench fails this script instead of silently
# shrinking perf coverage.
#
# Usage: ci/check_bench.sh  (from the repo root)
#
# Refresh the baseline after an intentional perf change with:
#   cargo bench --bench engine -- --json /tmp/engine.json
# and replace the committed file's "results" with the new ones, every line
# from one session on one named box (the "note" says which and how; see
# EXPERIMENTS.md, "Performance baselines").
set -eu

# Cargo runs bench binaries with the package directory as cwd, so the
# baseline paths must be absolute.
root=$(cd "$(dirname "$0")/.." && pwd)

# The 1e7-event macro bench takes ~2 s per sample; CI only needs the
# smaller points to detect a complexity regression, so filter to the
# sub-second benches. link_pipeline guards the flight-recorder contract:
# with no tracer installed the packet hot path must stay as fast as the
# committed baseline (tracing is a branch on a cold Option, nothing
# more). far_schedule_fire, schedule_fire_1e6 and schedule_cancel_fire
# put 1e6 timers, spread over 1 to 60 s, into the queue before the first
# pop: all but the first 134 ms of them wait in the far heap, so these
# lines time a 1e6-entry binary heap. No scenario has that shape (a flow's
# one far event is its RTO; the runner schedules arrivals as it reaches
# them), so they are slow on purpose and gated only against getting
# slower. What idle_gap_then_dense used to gate — a cursor parked on a far
# timer sends every later push into its own bucket — is pinned by count
# in netsim/tests/cursor_discipline.rs, so that bench, another
# pre-scheduled 1e6, is not run here. rearm_per_ack restarts one timer per
# delivered packet:
# the queue must hold one entry per timer, not one per restart.
# event_queue_hold runs the hold model at 20k pending events (the ring)
# and at 32 (depth_32_1e6_events: the sparse mode's sorted run, where
# every figure sweep and simcheck case lives). link_pipeline also carries
# router_relay_1e5: two routers in the path, so a hop that copies the
# packet out of the arena and back shows as a 1.5x line.
# packet_arena pins the pooled-packet alloc/free cycle.
# shard_barrier pins the sharded engine's per-window coordination cost (barriers +
# mailbox sweeps) with one hop of real work per window — both with the
# per-window telemetry records off (the free default) and on.
# quantile_sketch pins the log-histogram insert/merge path the large
# scenarios aggregate FCTs through.
cargo bench --bench engine -- \
    schedule_fire_1e5 schedule_cancel_fire_1e6 rearm_per_ack_1e6 \
    event_queue_hold/depth_20k_1e6_events event_queue_hold/depth_32_1e6_events \
    far_schedule_fire_1e6 packet_arena \
    link_pipeline/tracing link_pipeline/router_relay_1e5 \
    shard_barrier quantile_sketch \
    --check "$root/BENCH_netsim.json"

echo "OK: benchmark medians within 1.3x of the committed baseline"
