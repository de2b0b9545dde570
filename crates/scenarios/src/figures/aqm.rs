//! Extension experiment (paper §6, Bufferbloat discussion): "reducing
//! queuing delay is fully complementary to our study of reducing the
//! number of RTTs in a flow; the improvements multiply."
//!
//! We rerun the bufferbloat setting (one background TCP flow + short
//! flows) with a bloated 600 KB bottleneck buffer, once with drop-tail and
//! once with CoDel, for TCP vs Halfback — quantifying the claimed
//! multiplication: CoDel cuts the RTT, Halfback cuts the RTT *count*.

use crate::harness::RunCtx;
use crate::metrics::FctStats;
use crate::report::Figure;
use crate::runner::round_robin;
use crate::simcheck::{run_figure, CaseSpec, Topology};
use crate::{Protocol, Scale};
use netsim::rng::SimRng;
use netsim::topology::DumbbellSpec;
use netsim::{SimDuration, SimTime};
use workload::PoissonArrivals;

/// One cell: short-flow FCT stats under a bloated buffer with/without AQM.
pub fn cell(protocol: Protocol, codel: bool, scale: Scale) -> FctStats {
    let mut spec = DumbbellSpec::emulab_with_buffer(8, 600_000);
    spec.bottleneck_codel = codel;
    let horizon = scale.pick(SimDuration::from_secs(300), SimDuration::from_secs(60));
    let interval = scale.pick(SimDuration::from_secs(10), SimDuration::from_secs(4));
    let mut arrivals = PoissonArrivals::new(
        interval,
        SimTime::ZERO + SimDuration::from_secs(3),
        SimRng::new(83).fork("aqm"),
    );
    let background = (SimTime::ZERO, 2_000_000_000, Protocol::Tcp);
    let shorts = arrivals
        .until(SimTime::ZERO + horizon)
        .map(|t| (t, 100_000, protocol));
    let flows = round_robin(std::iter::once(background).chain(shorts), 8);
    let started = flows.len() - 1;
    let (topology, grace) = (Topology::Dumbbell(spec), SimDuration::from_secs(60));
    let case = CaseSpec::new(89, topology, flows, grace);
    let shorts: Vec<_> = run_figure(&case)
        .completed_records()
        .into_iter()
        .filter(|r| r.bytes == 100_000)
        .collect();
    FctStats::from_records(&shorts, started - shorts.len())
}

/// Render the AQM complementarity table.
pub fn figures(ctx: &RunCtx) -> Vec<Figure> {
    let scale = ctx.scale;
    let mut fig = Figure::new(
        "aqm",
        "Extension: CoDel AQM x Halfback under a bloated 600 KB buffer",
        "scheme x queue",
        "mean short-flow FCT (ms)",
    );
    let mut results = Vec::new();
    let protos = [
        Protocol::Tcp,
        Protocol::Tcp10,
        Protocol::JumpStart,
        Protocol::Halfback,
    ];
    // One harness job per (protocol, queue-discipline) cell.
    let grid: Vec<(Protocol, bool)> = protos
        .into_iter()
        .flat_map(|p| [(p, false), (p, true)])
        .collect();
    let stats = crate::harness::parallel_map(
        ctx,
        grid,
        |&(p, codel)| {
            format!(
                "aqm/{}/{}",
                p.name(),
                if codel { "codel" } else { "droptail" }
            )
        },
        |(p, codel)| cell(p, codel, scale),
    );
    for (pi, p) in protos.into_iter().enumerate() {
        let dt = stats[pi * 2].clone();
        let cd = stats[pi * 2 + 1].clone();
        fig.note(format!(
            "{}: drop-tail {:.0} ms -> CoDel {:.0} ms ({:+.0}%)",
            p.name(),
            dt.mean_ms,
            cd.mean_ms,
            100.0 * (cd.mean_ms / dt.mean_ms - 1.0)
        ));
        results.push((p, dt.mean_ms, cd.mean_ms));
        fig.push_series(format!("{} drop-tail", p.name()), vec![(0.0, dt.mean_ms)]);
        fig.push_series(format!("{} CoDel", p.name()), vec![(1.0, cd.mean_ms)]);
    }
    let get = |p: Protocol, idx: usize| {
        results
            .iter()
            .find(|(q, _, _)| *q == p)
            .map(|r| if idx == 0 { r.1 } else { r.2 })
            .unwrap_or(f64::NAN)
    };
    fig.note(format!(
        "multiplication: TCP+drop-tail {:.0} ms vs Halfback+CoDel {:.0} ms ({:.1}x)",
        get(Protocol::Tcp, 0),
        get(Protocol::Halfback, 1),
        get(Protocol::Tcp, 0) / get(Protocol::Halfback, 1)
    ));
    vec![fig]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codel_debloats_tcp_under_bloated_buffer() {
        let dt = cell(Protocol::Tcp, false, Scale::Quick);
        let cd = cell(Protocol::Tcp, true, Scale::Quick);
        // With a 600 KB standing queue, CoDel must cut TCP's short-flow FCT
        // substantially (the queueing delay dominates).
        assert!(
            cd.mean_ms < dt.mean_ms * 0.8,
            "CoDel {:.0} ms vs drop-tail {:.0} ms",
            cd.mean_ms,
            dt.mean_ms
        );
    }

    #[test]
    fn halfback_and_codel_multiply() {
        let worst = cell(Protocol::Tcp, false, Scale::Quick);
        let best = cell(Protocol::Halfback, true, Scale::Quick);
        assert!(
            best.mean_ms < worst.mean_ms * 0.45,
            "Halfback+CoDel {:.0} ms vs TCP+drop-tail {:.0} ms",
            best.mean_ms,
            worst.mean_ms
        );
    }
}
