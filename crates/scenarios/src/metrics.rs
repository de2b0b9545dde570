//! Metrics over flow records: FCT statistics, retransmission counts, the
//! feasible-capacity knee detector used for Figs. 1, 12 and 17, and the
//! summary line of a flow-scaled run's FCT sketch.

use netsim::stats::{Ecdf, LogHistogram};
use transport::sender::FlowRecord;

/// One summary line for a quantile sketch: count, exact mean, p50, p99 and
/// p99.9 (bucket midpoints), and the bucket count — or `n=0` when empty.
pub fn sketch_line(name: &str, s: &LogHistogram) -> String {
    match (s.mean(), s.quantile(50.0)) {
        (Some(mean), Some(p50)) => format!(
            "{name}: n={} mean={mean:.2} p50={p50:.2} p99={:.2} p99.9={:.2} (sketch, {} buckets)",
            s.count(),
            s.quantile(99.0).unwrap_or(f64::NAN),
            s.quantile(99.9).unwrap_or(f64::NAN),
            s.buckets_len(),
        ),
        _ => format!("{name}: n=0 (sketch)"),
    }
}

/// The number of censored (started-but-unfinished) flows, computed as
/// `started - completed` with the subtraction *checked*: more completions
/// than starts is a counting bug (double-collected records, wrong filter),
/// and the old `saturating_sub` silently reported it as "0 censored".
/// Debug builds assert; release builds surface the discrepancy on stderr
/// and report zero so a long figure run still renders.
pub fn censored_count(started: usize, completed: usize, context: &str) -> usize {
    match started.checked_sub(completed) {
        Some(n) => n,
        None => {
            debug_assert!(
                false,
                "{context}: {completed} completed flows but only {started} started"
            );
            eprintln!(
                "warning: {context}: collected {completed} completion records for \
                 {started} started flows — flow accounting is broken; reporting 0 censored"
            );
            0
        }
    }
}

/// Summary statistics of a set of completed flows.
#[derive(Debug, Clone)]
pub struct FctStats {
    /// Completed flows.
    pub completed: usize,
    /// Flows that were started but never finished within the horizon
    /// (censored — a symptom of collapse).
    pub censored: usize,
    /// Mean FCT in milliseconds.
    pub mean_ms: f64,
    /// Median FCT in milliseconds.
    pub median_ms: f64,
    /// 99th-percentile FCT in milliseconds.
    pub p99_ms: f64,
    /// Mean normal (reactive) retransmissions per flow.
    pub mean_normal_retx: f64,
    /// Mean proactive copies per flow.
    pub mean_proactive_retx: f64,
    /// Mean RTO events per flow.
    pub mean_rtos: f64,
}

impl FctStats {
    /// Compute from records plus the number of censored (unfinished) flows.
    pub fn from_records(records: &[FlowRecord], censored: usize) -> FctStats {
        let fct = fct_ecdf(records);
        let mut sum_ms = 0.0;
        let mut nr = 0u64;
        let mut pr = 0u64;
        let mut rto = 0u64;
        for r in records {
            sum_ms += r.fct.as_millis_f64();
            nr += r.counters.normal_retx;
            pr += r.counters.proactive_retx;
            rto += r.counters.rto_events;
        }
        let n = records.len().max(1) as f64;
        FctStats {
            completed: records.len(),
            censored,
            // Summed in record order, not the Ecdf's sorted order: float
            // addition is order-sensitive and the goldens pin this sum.
            mean_ms: if records.is_empty() {
                f64::NAN
            } else {
                sum_ms / n
            },
            median_ms: fct.median().unwrap_or(f64::NAN),
            p99_ms: fct.percentile(99.0).unwrap_or(f64::NAN),
            mean_normal_retx: nr as f64 / n,
            mean_proactive_retx: pr as f64 / n,
            mean_rtos: rto as f64 / n,
        }
    }

    /// Fraction of started flows that completed.
    pub fn completion_rate(&self) -> f64 {
        let total = self.completed + self.censored;
        if total == 0 {
            return 1.0;
        }
        self.completed as f64 / total as f64
    }
}

/// Build an FCT CDF (milliseconds) from records.
pub fn fct_ecdf(records: &[FlowRecord]) -> Ecdf {
    Ecdf::from_samples(records.iter().map(|r| r.fct.as_millis_f64()).collect())
}

/// Build a CDF of FCT normalized by each flow's own minimum RTT (the
/// Fig. 7 "number of RTTs" view).
pub fn rtt_count_ecdf(records: &[FlowRecord]) -> Ecdf {
    Ecdf::from_samples(
        records
            .iter()
            .filter_map(|r| {
                let rtt = r.min_rtt?.as_millis_f64();
                (rtt > 0.0).then(|| r.fct.as_millis_f64() / rtt)
            })
            .collect(),
    )
}

/// Build a CDF of normal retransmission counts (Fig. 5).
pub fn retx_ecdf(records: &[FlowRecord]) -> Ecdf {
    Ecdf::from_samples(
        records
            .iter()
            .map(|r| r.counters.normal_retx as f64)
            .collect(),
    )
}

/// One point of a utilization sweep.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Offered utilization (0–1).
    pub utilization: f64,
    /// Utilization the bottleneck actually carried, including every
    /// retransmission and proactive copy (0–1; NaN when unknown). The gap
    /// between offered and achieved is each scheme's overhead.
    pub achieved_utilization: f64,
    /// FCT and retransmission statistics at that load.
    pub stats: FctStats,
}

/// Feasible capacity (§4: "the maximum achievable network utilization
/// before the throughput collapses").
///
/// Operationalized as the highest utilization at which *all* hold:
/// * mean FCT is below `max(collapse_factor x low-load mean, floor_ms)` —
///   collapse means both a relative blow-up *and* seconds-scale absolute
///   latency (the region where the paper's Fig. 12 curves shoot up), and
/// * at least `min_completion` of started flows completed within the
///   horizon.
pub fn feasible_capacity(
    points: &[SweepPoint],
    collapse_factor: f64,
    floor_ms: f64,
    min_completion: f64,
) -> f64 {
    if points.is_empty() {
        return 0.0;
    }
    let base = points
        .iter()
        .map(|p| p.stats.mean_ms)
        .find(|m| m.is_finite())
        .unwrap_or(f64::NAN);
    let threshold = (base * collapse_factor).max(floor_ms);
    let mut feasible = 0.0;
    for p in points {
        let ok = p.stats.mean_ms.is_finite()
            && p.stats.mean_ms <= threshold
            && p.stats.completion_rate() >= min_completion;
        if ok {
            feasible = p.utilization;
        } else {
            break;
        }
    }
    feasible
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{SimDuration, SimTime};
    use transport::sender::Counters;
    use transport::FlowRecord;

    fn rec(fct_ms: u64, normal_retx: u64, min_rtt_ms: u64) -> FlowRecord {
        FlowRecord {
            flow: netsim::FlowId(0),
            protocol: "test",
            bytes: 100_000,
            start: SimTime::ZERO,
            established_at: SimTime::ZERO,
            done_at: SimTime::ZERO + SimDuration::from_millis(fct_ms),
            fct: SimDuration::from_millis(fct_ms),
            counters: Counters {
                normal_retx,
                ..Default::default()
            },
            min_rtt: Some(SimDuration::from_millis(min_rtt_ms)),
            outcome: transport::FlowOutcome::Completed,
        }
    }

    #[test]
    fn stats_basics() {
        let rs = vec![rec(100, 0, 50), rec(200, 2, 50), rec(300, 4, 50)];
        let s = FctStats::from_records(&rs, 1);
        assert_eq!(s.completed, 3);
        assert_eq!(s.censored, 1);
        assert!((s.mean_ms - 200.0).abs() < 1e-9);
        assert!((s.median_ms - 200.0).abs() < 1e-9);
        assert!((s.mean_normal_retx - 2.0).abs() < 1e-9);
        assert!((s.completion_rate() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn rtt_normalization() {
        let rs = vec![rec(500, 0, 100)];
        let e = rtt_count_ecdf(&rs);
        assert!((e.median().unwrap() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn feasible_capacity_finds_knee() {
        let mk = |u: f64, mean: f64, censored: usize| SweepPoint {
            utilization: u,
            achieved_utilization: u,
            stats: FctStats {
                completed: 100,
                censored,
                mean_ms: mean,
                median_ms: mean,
                p99_ms: mean,
                mean_normal_retx: 0.0,
                mean_proactive_retx: 0.0,
                mean_rtos: 0.0,
            },
        };
        // Stable until 0.5, collapses after.
        let pts = vec![
            mk(0.05, 200.0, 0),
            mk(0.25, 220.0, 0),
            mk(0.50, 300.0, 1),
            mk(0.55, 2500.0, 40),
            mk(0.60, 4000.0, 80),
        ];
        let fc = feasible_capacity(&pts, 4.0, 800.0, 0.9);
        assert!((fc - 0.50).abs() < 1e-9, "feasible {fc}");
    }

    #[test]
    fn feasible_capacity_requires_completion() {
        let mk = |u: f64, mean: f64, censored: usize| SweepPoint {
            utilization: u,
            achieved_utilization: u,
            stats: FctStats {
                completed: 50,
                censored,
                mean_ms: mean,
                median_ms: mean,
                p99_ms: mean,
                mean_normal_retx: 0.0,
                mean_proactive_retx: 0.0,
                mean_rtos: 0.0,
            },
        };
        // FCT fine, but half the flows never finish: collapse.
        let pts = vec![mk(0.05, 200.0, 0), mk(0.10, 210.0, 50)];
        assert!((feasible_capacity(&pts, 4.0, 800.0, 0.9) - 0.05).abs() < 1e-9);
    }
}
