//! Fig. 17: the §5 design-space ablation — startup phase × proactive
//! retransmission (bandwidth, direction, rate) — on the same all-short-flow
//! utilization sweep as Fig. 12.

use crate::figures::feasible::{self, FeasibleData};
use crate::harness::RunCtx;
use crate::metrics::feasible_capacity;
use crate::report::Figure;
use crate::Protocol;

/// Run the sweep over the ablation protocol set, one harness job per
/// (protocol, utilization) cell.
pub fn run(ctx: &RunCtx) -> FeasibleData {
    FeasibleData {
        sweeps: feasible::sweep_many(&Protocol::ABLATION, ctx, 42),
    }
}

/// Render Fig. 17.
pub fn figures(ctx: &RunCtx) -> Vec<Figure> {
    let data = run(ctx);
    let mut fig = Figure::new(
        "fig17",
        "FCT and feasible capacity for startup/recovery design choices",
        "utilization (%)",
        "mean FCT (ms)",
    );
    for (p, points) in &data.sweeps {
        fig.push_series(
            p.name(),
            points
                .iter()
                .map(|pt| (pt.utilization * 100.0, pt.stats.mean_ms))
                .collect(),
        );
        let fc = feasible_capacity(
            points,
            feasible::COLLAPSE_FACTOR,
            feasible::COLLAPSE_FLOOR_MS,
            feasible::MIN_COMPLETION,
        );
        fig.note(format!(
            "{}: feasible capacity {:.0}%",
            p.name(),
            fc * 100.0
        ));
    }
    // The §5 claims, as checkable notes.
    let fc_of = |p: Protocol| {
        data.sweeps
            .iter()
            .find(|(q, _)| *q == p)
            .map(|(_, pts)| {
                feasible_capacity(
                    pts,
                    feasible::COLLAPSE_FACTOR,
                    feasible::COLLAPSE_FLOOR_MS,
                    feasible::MIN_COMPLETION,
                )
            })
            .unwrap_or(0.0)
    };
    fig.note(format!(
        "direction: Halfback {:.0}% vs Halfback-Forward {:.0}% (paper: 70% vs 35%)",
        fc_of(Protocol::Halfback) * 100.0,
        fc_of(Protocol::HalfbackForward) * 100.0
    ));
    fig.note(format!(
        "rate: Halfback {:.0}% vs Halfback-Burst {:.0}% (paper: burst 'significantly smaller')",
        fc_of(Protocol::Halfback) * 100.0,
        fc_of(Protocol::HalfbackBurst) * 100.0
    ));
    fig.note(format!(
        "bandwidth: TCP {:.0}% (0% extra) vs Halfback {:.0}% (~50%) vs Proactive {:.0}% (100%)",
        fc_of(Protocol::Tcp) * 100.0,
        fc_of(Protocol::Halfback) * 100.0,
        fc_of(Protocol::Proactive) * 100.0
    ));
    vec![fig]
}
