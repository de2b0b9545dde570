//! Extension experiment (paper §5, "Additional bandwidth" future work):
//! "It is also possible to dynamically tune the additional bandwidth used
//! for proactive retransmission ... instead of sending one retransmission
//! for each ACK, we could send two retransmissions for every three ACKs.
//! The trade-off of that scheme is an interesting open question."
//!
//! We answer it within this simulator: sweep the ROPR ratio (1/1, 2/3,
//! 1/2) over the Fig. 12 workload and report the latency/feasible-capacity
//! trade each ratio buys.

use crate::figures::feasible;
use crate::harness::RunCtx;
use crate::metrics::feasible_capacity;
use crate::report::Figure;
use crate::Protocol;

/// The ratios swept, with the paper's 1-per-ACK design first.
pub fn variants() -> [Protocol; 4] {
    [
        Protocol::Halfback,
        Protocol::HalfbackRatio23,
        Protocol::HalfbackRatio12,
        Protocol::HalfbackNoRopr,
    ]
}

/// Render the ratio trade-off figure.
pub fn figures(ctx: &RunCtx) -> Vec<Figure> {
    let mut fig = Figure::new(
        "ratio",
        "Extension: ROPR proactive-bandwidth ratio trade-off (paper §5 open question)",
        "utilization (%)",
        "mean FCT (ms)",
    );
    let mut rows = Vec::new();
    for (p, pts) in feasible::sweep_many(&variants(), ctx, 42) {
        let fc = feasible_capacity(
            &pts,
            feasible::COLLAPSE_FACTOR,
            feasible::COLLAPSE_FLOOR_MS,
            feasible::MIN_COMPLETION,
        );
        let low = pts.first().map(|pt| pt.stats.mean_ms).unwrap_or(f64::NAN);
        let mid = pts
            .iter()
            .find(|pt| (pt.utilization - 0.5).abs() < 0.026)
            .map(|pt| pt.stats.mean_ms)
            .unwrap_or(f64::NAN);
        fig.push_series(
            p.name(),
            pts.iter()
                .map(|pt| (pt.utilization * 100.0, pt.stats.mean_ms))
                .collect(),
        );
        fig.note(format!(
            "{}: low-load FCT {:.0} ms, FCT@50% {:.0} ms, feasible capacity {:.0}%",
            p.name(),
            low,
            mid,
            fc * 100.0
        ));
        rows.push((p, low, fc));
    }
    fig.note(
        "answer to the open question: less proactive bandwidth buys feasible capacity \
         at the cost of loss-recovery latency; the 1-per-ACK design maximizes the \
         recovery guarantee while 2-per-3 trades a little of it for headroom"
            .to_string(),
    );
    vec![fig]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_variants_have_decreasing_overhead() {
        // Direct mechanism check at flow level: proactive copies scale with
        // the configured ratio.
        use crate::simcheck::single_path_flow;
        use netsim::topology::PathSpec;
        use netsim::{Rate, SimDuration};
        let spec = PathSpec::clean(Rate::from_mbps(50), SimDuration::from_millis(60));
        let copies = |p: Protocol| {
            single_path_flow(&spec, p, 100_000, 3, SimDuration::from_secs(120))
                .unwrap()
                .counters
                .proactive_retx
        };
        let full = copies(Protocol::Halfback);
        let two_thirds = copies(Protocol::HalfbackRatio23);
        let half = copies(Protocol::HalfbackRatio12);
        let none = copies(Protocol::HalfbackNoRopr);
        assert!(full > two_thirds, "{full} vs {two_thirds}");
        assert!(two_thirds > half, "{two_thirds} vs {half}");
        assert_eq!(none, 0);
        // 1-per-2-ACKs should be roughly half the copies of 1-per-ACK.
        assert!(
            (half as f64 / full as f64 - 0.5).abs() < 0.2,
            "{half}/{full}"
        );
    }
}
