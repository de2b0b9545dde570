//! From a rig's two runs (plain and shimmed) and what the end-to-end runs of
//! the traced set observed, to the per-layer metrics and the row table whose
//! self times sum to the rig's thread time.

use crate::metrics::PER_LAYER;
use crate::rigs::RigRun;
use crate::trace::Span;

/// What the end-to-end runs of a traced set contribute to the per-layer
/// metrics. Zero stands for "does not apply to this workload".
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EndToEndFacts {
    /// FNV-1a of the run's deterministic outputs.
    pub digest: u64,
    /// Events the run reported, if its outputs say.
    pub events: Option<u64>,
    /// Harness jobs the run reported.
    pub jobs: u64,
    /// Child CPU seconds of one run.
    pub cpu_s: f64,
    /// Child CPU seconds ÷ (workload threads × wall seconds).
    pub cpu_utilization: f64,
    /// Median wall of `sharded_dense_t1` ÷ that of `_t2`.
    pub parallel_speedup: f64,
    /// Host milliseconds per weather checkpoint.
    pub checkpoint_ms: f64,
    /// Size of a weather checkpoint.
    pub checkpoint_bytes: u64,
}

/// One row of a rig's breakdown: a layer and the host nanoseconds spent in
/// it and in nothing below it. `other` may be negative when the sampled
/// estimates overshoot.
pub type Row = (&'static str, i64);

/// The rig's thread time, split by layer. The rows sum to
/// `wall_ns × threads` exactly: `other` is the remainder, and its share is
/// reported as `bench.trace.unattributed_share`.
pub fn rows(shimmed: &RigRun) -> Vec<Row> {
    let t = &shimmed.trace;
    let own = |span: Span| t.self_ns(|s| s == span) as i64;
    let dispatch_total = t.total_ns(Span::is_host_dispatch) as i64;
    let dispatch_self = t.self_ns(Span::is_host_dispatch) as i64;
    let (engine_gross, barrier) = match &shimmed.shard {
        // Inside `run_sharded` the benchmark has no span of its own around
        // the engine; the shard telemetry's per-window wall time stands in.
        Some(s) => (s.window_ns as i64, s.barrier_ns as i64),
        None => (own(Span::RunUntil), 0),
    };
    let mut rows = vec![
        ("netsim.topology", own(Span::Build) + own(Span::SimBuild)),
        ("workload.arrivals", own(Span::Arrival)),
        ("netsim.engine", engine_gross - dispatch_total),
        ("netsim.shard.barrier", barrier),
        (
            "transport.host",
            dispatch_self + own(Span::StartFlow) + own(Span::Reap),
        ),
        ("transport.strategy", dispatch_total - dispatch_self),
        (
            "rig.driver",
            own(Span::Rig)
                + own(Span::Window)
                + own(Span::Drain)
                + own(Span::Finish)
                + own(Span::Collect),
        ),
    ];
    let attributed: i64 = rows.iter().map(|r| r.1).sum();
    rows.push(("other", thread_ns(shimmed) as i64 - attributed));
    rows
}

fn thread_ns(run: &RigRun) -> u64 {
    run.wall_ns * run.threads
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Every metric of [`PER_LAYER`], in that order, for one (plain, shimmed)
/// pair of rig runs.
pub fn per_layer(plain: &RigRun, shimmed: &RigRun, e2e: &EndToEndFacts) -> Vec<f64> {
    let t = &shimmed.trace;
    let rows = rows(shimmed);
    let share = |layer: &str| {
        let ns = rows.iter().find(|r| r.0 == layer).map_or(0, |r| r.1);
        ratio(ns as f64, thread_ns(shimmed) as f64)
    };
    let calls = |span: Span| t.calls(|s| s == span) as f64;
    let total = |span: Span| t.total_ns(|s| s == span) as f64;
    let (net, flows) = (&shimmed.net, &shimmed.flows);
    let shard = shimmed.shard.clone().unwrap_or_default();
    let events = e2e.events.unwrap_or(net.events);

    let values = vec![
        events as f64,
        ratio(plain.wall_ns as f64, plain.net.events as f64),
        ratio(plain.net.events as f64, plain.wall_ns as f64 / 1e9),
        share("netsim.engine"),
        net.pending_events_max as f64,
        net.arena_high_water as f64,
        net.tx_packets as f64,
        net.lost_packets as f64,
        net.queue_dropped as f64,
        net.max_backlog_bytes as f64,
        ratio(net.nonplain_tx_packets as f64, net.tx_packets as f64),
        shard.windows as f64,
        shard.cross_messages as f64,
        ratio(
            shard.barrier_ns as f64,
            (shard.barrier_ns + shard.window_ns) as f64,
        ),
        shard.imbalance,
        e2e.parallel_speedup,
        if shimmed.shard.is_some() {
            e2e.cpu_s
        } else {
            0.0
        },
        ratio(total(Span::SimBuild) / 1e3, calls(Span::SimBuild)),
        total(Span::Build) / 1e9,
        t.calls(Span::is_host_dispatch) as f64,
        share("transport.host"),
        ratio(total(Span::StartFlow), calls(Span::StartFlow)),
        ratio(total(Span::Reap), shimmed.reaped as f64),
        flows.data_packets as f64,
        flows.reactive_retx as f64,
        flows.rto_events as f64,
        flows.unfinished() as f64,
        t.calls(Span::is_strategy_hook) as f64,
        share("transport.strategy"),
        flows.proactive_copies as f64,
        ratio(flows.wire_bytes as f64, flows.payload_bytes as f64),
        ratio(total(Span::Arrival), flows.started as f64),
        share("rig.driver"),
        e2e.checkpoint_ms,
        e2e.checkpoint_bytes as f64,
        e2e.jobs as f64,
        e2e.cpu_utilization,
        flows.started as f64,
        flows.fct_ms_mean(),
        flows.fct_ms_p99(),
        (e2e.digest >> 16) as f64,
        ratio(shimmed.wall_ns as f64, plain.wall_ns as f64),
        share("other"),
    ];
    assert_eq!(values.len(), PER_LAYER.len(), "one value per metric");
    values
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rigs::{dumbbell, Shim};

    #[test]
    fn rows_sum_to_the_rig_wall_and_metrics_line_up_with_their_names() {
        let plain = dumbbell::run(3, Shim(false));
        let shimmed = dumbbell::run(3, Shim(true));
        assert_eq!(plain.simulated(), shimmed.simulated());

        let rows = rows(&shimmed);
        assert_eq!(
            rows.iter().map(|r| r.1).sum::<i64>(),
            shimmed.wall_ns as i64
        );
        assert_eq!(rows.last().unwrap().0, "other");
        let other = rows.last().unwrap().1 as f64 / shimmed.wall_ns as f64;
        assert!(other.abs() < 0.02, "unattributed share {other}");

        let e2e = EndToEndFacts {
            digest: 0xabcd_ef01_2345_6789,
            jobs: 7,
            ..Default::default()
        };
        let values = per_layer(&plain, &shimmed, &e2e);
        let get = |name: &str| values[PER_LAYER.iter().position(|m| m.name == name).unwrap()];
        assert_eq!(get("netsim.engine.events"), shimmed.net.events as f64);
        assert_eq!(get("sim.flows_started"), shimmed.flows.started as f64);
        assert_eq!(get("scenarios.harness.jobs"), 7.0);
        assert_eq!(get("sim.digest"), 0xabcd_ef01_2345u64 as f64);
        assert_eq!(get("netsim.shard.windows"), 0.0);
        assert!(get("netsim.queue.dropped") > 0.0, "the rig is congested");
        assert!(get("transport.strategy.proactive_copies") > 0.0);
        assert!(get("transport.strategy.wire_overhead_ratio") > 1.0);
        assert!(get("bench.trace.overhead_ratio") > 0.5);
        let shares = get("netsim.engine.self_share")
            + get("transport.host.self_share")
            + get("transport.strategy.self_share");
        assert!(shares > 0.5 && shares < 1.0, "{shares}");
    }
}
