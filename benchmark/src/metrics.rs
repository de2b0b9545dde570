//! The metric tables: every name, unit, direction and bound the benchmark
//! reports, in one place. `BENCHMARK.json` repeats them for the driver; a
//! test keeps the two in step.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the system would see, measured with tracing off.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the reference median by which the metric may worsen before
    /// it counts as a regression.
    pub bound: f64,
}

/// Host seconds for one run of the workload at its fixed size, child spawn
/// to exit. Inputs are fixed, so this *is* work per second — and unlike
/// events per second it does not punish a change that removes events.
///
/// The bound is the widest the contract allows: on the shared 2-core
/// reference box the machine itself drifts by 10–20 % for minutes at a time,
/// and the spread of ten runs (6–12 % of the median) has to stay inside it.
pub const WALL_S: EndToEnd = EndToEnd {
    name: "wall_s",
    unit: "s",
    better: Better::Lower,
    bound: 0.25,
};
/// The child's peak resident set (`ru_maxrss`).
pub const PEAK_RSS_MB: EndToEnd = EndToEnd {
    name: "peak_rss_mb",
    unit: "MiB",
    better: Better::Lower,
    bound: 0.15,
};
/// Host seconds for the workload's command at null size: what a run pays
/// that does not scale with simulated work.
pub const SETUP_S: EndToEnd = EndToEnd {
    name: "setup_s",
    unit: "s",
    better: Better::Lower,
    bound: 0.25,
};

/// The end-to-end metrics, in reporting order.
pub const END_TO_END: [EndToEnd; 3] = [WALL_S, PEAK_RSS_MB, SETUP_S];

/// A metric of one layer, from the traced run. Layer = module.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// `<crate>.<module>.<what>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction (for counts: fewer is less work).
    pub better: Better,
    /// True when the value is a count or a simulated quantity that repeats
    /// exactly from run to run of the same build and seed.
    pub exact: bool,
    /// Which end-to-end metric, on which workload, it should move.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    exact: bool,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact,
        moves,
    }
}

use Better::{Higher, Lower};

/// The per-layer metrics, in reporting order. A metric that does not apply
/// to a workload (shard counters on an unsharded one) reads 0 there.
pub const PER_LAYER: [PerLayer; 43] = [
    layer("netsim.engine.events", "count", Lower, true,
        "wall_s everywhere; from manifest.json or the sharded child where they report it, else counted by the rig"),
    layer("netsim.engine.ns_per_event", "ns", Lower, false,
        "wall_s on sharded_dense_t1 and dumbbell_figures (plain rig wall / events)"),
    layer("netsim.engine.events_per_s", "1/s", Higher, false,
        "wall_s on sharded_dense_t1 and dumbbell_figures"),
    layer("netsim.engine.self_share", "share", Lower, false,
        "wall_s on sharded_dense_t1 (largest there), little on weather_*"),
    layer("netsim.engine.pending_events_max", "count", Lower, true,
        "peak_rss_mb on sharded_dense_*; marks the sparse or dense queue regime"),
    layer("netsim.engine.arena_high_water", "count", Lower, true,
        "peak_rss_mb on sharded_dense_*"),
    layer("netsim.link.tx_packets", "count", Lower, true,
        "event count, so wall_s everywhere"),
    layer("netsim.link.lost_packets", "count", Lower, true,
        "event count; tiny_sims is the workload with wire loss"),
    layer("netsim.queue.dropped", "count", Lower, true,
        "event count; dumbbell_figures is the congested workload"),
    layer("netsim.queue.max_backlog_bytes", "bytes", Lower, true,
        "simulated queueing; pins behaviour on dumbbell_figures"),
    layer("netsim.link.nonplain_share", "share", Lower, true,
        "wall_s on tiny_sims only (0 elsewhere): transmissions off the plain link path"),
    layer("netsim.shard.windows", "count", Lower, true,
        "wall_s on sharded_dense_t2"),
    layer("netsim.shard.cross_messages", "count", Lower, true,
        "wall_s on sharded_dense_t2"),
    layer("netsim.shard.barrier_wait_share", "share", Lower, false,
        "wall_s on sharded_dense_t2, none on _t1"),
    layer("netsim.shard.imbalance", "ratio", Lower, true,
        "wall_s on sharded_dense_t2: the busiest thread sets each window"),
    layer("netsim.shard.parallel_speedup", "ratio", Higher, false,
        "median wall_s of _t1 / _t2, alternated; 0 off the sharded workloads and when available_parallelism is 1"),
    layer("netsim.shard.cpu_s", "s", Lower, false,
        "child CPU seconds on sharded_dense_*; with wall_s, the cost of the second thread"),
    layer("netsim.topology.build_us_per_sim", "us", Lower, false,
        "wall_s on tiny_sims"),
    layer("netsim.topology.build_s", "s", Lower, false,
        "setup_s on sharded_dense_*"),
    layer("transport.host.calls", "count", Lower, true,
        "wall_s on weather_tcp: host on_packet and on_timer dispatches"),
    layer("transport.host.self_share", "share", Lower, false,
        "wall_s on weather_tcp (largest there)"),
    layer("transport.host.start_flow_ns", "ns", Lower, false,
        "wall_s on weather_*: per-flow sender set-up"),
    layer("transport.host.reap_ns_per_receiver", "ns", Lower, false,
        "wall_s on weather_*: per-flow receiver tear-down; 0 where nothing is reaped"),
    layer("transport.host.data_packets_sent", "count", Lower, true,
        "event count, so wall_s; pins simulated behaviour"),
    layer("transport.host.reactive_retx", "count", Lower, true,
        "event count on dumbbell_figures and tiny_sims"),
    layer("transport.host.rto_events", "count", Lower, true,
        "simulated completion time, not host time; pins behaviour"),
    layer("transport.host.flows_unfinished", "count", Lower, true,
        "pins behaviour: flows neither completed nor aborted when the rig stops"),
    layer("transport.strategy.hook_calls", "count", Lower, true,
        "wall_s on weather_halfback minus weather_tcp, and dumbbell_figures"),
    layer("transport.strategy.self_share", "share", Lower, false,
        "wall_s on weather_halfback minus weather_tcp, and dumbbell_figures"),
    layer("transport.strategy.proactive_copies", "count", Lower, true,
        "more packets, so wall_s on weather_halfback and sharded_dense_*"),
    layer("transport.strategy.wire_overhead_ratio", "ratio", Lower, true,
        "the paper's safely number: wire bytes / payload bytes of completed flows"),
    layer("workload.arrivals.ns_per_arrival", "ns", Lower, false,
        "wall_s on weather_*"),
    layer("scenarios.weather.driver_self_share", "share", Lower, false,
        "wall_s on weather_*: window drain, sketches, census, collection"),
    layer("scenarios.weather.checkpoint_ms", "ms", Lower, false,
        "wall_s on weather_*: CLI run with a checkpoint per window minus one with none, per checkpoint"),
    layer("scenarios.weather.checkpoint_bytes", "bytes", Lower, true,
        "wall_s on weather_* through checkpoint_ms"),
    layer("scenarios.harness.jobs", "count", Lower, true,
        "wall_s on dumbbell_figures and tiny_sims"),
    layer("scenarios.harness.cpu_utilization", "share", Higher, false,
        "wall_s on dumbbell_figures (tail job) and tiny_sims (per-job overhead): child CPU s / (threads x wall_s)"),
    layer("sim.flows_started", "count", Lower, true,
        "must not move under a speed-up"),
    layer("sim.fct_ms_mean", "ms", Lower, true,
        "simulated time; must not move under a speed-up"),
    layer("sim.fct_ms_p99", "ms", Lower, true,
        "simulated time; must not move under a speed-up"),
    layer("sim.digest", "hash48", Lower, true,
        "top 48 bits of the FNV-1a of the run's deterministic outputs; no direction, must not move under a speed-up"),
    layer("bench.trace.overhead_ratio", "ratio", Lower, false,
        "quality of the trace: shimmed rig wall / plain rig wall"),
    layer("bench.trace.unattributed_share", "share", Lower, false,
        "quality of the trace: the `other` row / rig thread time"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;
    use crate::workloads::Workload;

    /// Name limits of the driver's contract.
    fn well_formed(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn benchmark_json_repeats_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Value::parse(path, &std::fs::read_to_string(path).unwrap()).unwrap();

        let workloads: Vec<&str> = doc
            .need_arr(path, "workloads")
            .unwrap()
            .iter()
            .map(|w| w.need_str(path, "name").unwrap())
            .collect();
        assert_eq!(workloads, Workload::ALL.map(Workload::name));

        let e2e = doc.need_arr(path, "end_to_end").unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (json, m) in e2e.iter().zip(END_TO_END) {
            assert_eq!(json.need_str(path, "name").unwrap(), m.name);
            assert_eq!(json.need_str(path, "unit").unwrap(), m.unit);
            assert_eq!(json.need_str(path, "better").unwrap(), m.better.word());
            assert_eq!(json.need_f64(path, "bound").unwrap(), m.bound);
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }

        let layers = doc.need_arr(path, "per_layer").unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (json, m) in layers.iter().zip(PER_LAYER) {
            assert_eq!(json.need_str(path, "name").unwrap(), m.name);
            assert_eq!(json.need_str(path, "unit").unwrap(), m.unit);
            assert_eq!(json.need_str(path, "better").unwrap(), m.better.word());
            assert!(well_formed(m.name) && m.unit.len() <= 16, "{}", m.name);
        }
        assert_eq!(
            doc.need_u64(path, "run_seconds").unwrap(),
            crate::args::DEFAULT_SECONDS as u64
        );
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(Workload::ALL.map(Workload::name));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
