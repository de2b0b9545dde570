//! Extension experiment (paper §7 future work: "emulation with more
//! complex topologies"): short flows crossing a 3-hop parking lot with
//! independent cross traffic on every hop.
//!
//! The question multi-bottleneck paths pose for Halfback: the Pacing phase
//! measures one end-to-end RTT but the flow now contends at *several*
//! queues, and ROPR's ACK clock reflects the slowest of them. We measure
//! through-flow FCT for each scheme while every hop carries its own
//! cross-traffic load.

use crate::harness::RunCtx;
use crate::metrics::FctStats;
use crate::report::Figure;
use crate::simcheck::{run_figure, CaseSpec, FlowSpec, Topology};
use crate::{Protocol, Scale};
use netsim::rng::SimRng;
use netsim::topology::ParkingLotSpec;
use netsim::{SimDuration, SimTime};
use workload::PoissonArrivals;

/// Run through-flows of one scheme across a 3-hop parking lot while TCP
/// cross traffic loads each hop at `cross_util` of its capacity.
pub fn run_through(protocol: Protocol, cross_util: f64, scale: Scale) -> FctStats {
    let spec = ParkingLotSpec::emulab_like(3);
    let horizon =
        SimTime::ZERO + scale.pick(SimDuration::from_secs(120), SimDuration::from_secs(30));

    // Build the merged arrival list: (time, hop or through, pair index).
    let root = SimRng::new(4242).fork_indexed("multihop", (cross_util * 1000.0) as u64);
    let mut arrivals: Vec<(SimTime, Option<usize>)> = Vec::new();
    let cross_gap = workload::interarrival_for_utilization(spec.hop_rate, 100_000.0, cross_util);
    for h in 0..spec.hops {
        let mut p = PoissonArrivals::new(
            cross_gap,
            SimTime::ZERO,
            root.fork_indexed("cross", h as u64),
        );
        arrivals.extend(p.until(horizon).map(|t| (t, Some(h))));
    }
    // Through flows at a light 10% additional load.
    let through_gap = workload::interarrival_for_utilization(spec.hop_rate, 100_000.0, 0.10);
    let mut p = PoissonArrivals::new(through_gap, SimTime::ZERO, root.fork("through"));
    arrivals.extend(p.until(horizon).map(|t| (t, None)));
    arrivals.sort_by_key(|&(t, _)| t);

    // Through flows run the scheme under test on the through pairs in turn;
    // cross traffic is always TCP, on a pair of its own hop.
    let (n_through, n_cross) = (spec.n_through, spec.n_cross_per_hop);
    let mut through = vec![false; arrivals.len()];
    let mut through_started = 0usize;
    let flows: Vec<FlowSpec> = arrivals
        .iter()
        .enumerate()
        .map(|(i, &(at, which))| {
            let (pair, protocol) = match which {
                None => {
                    through[i] = true;
                    through_started += 1;
                    ((through_started - 1) % n_through, protocol)
                }
                Some(hop) => (n_through + hop * n_cross + i % n_cross, Protocol::Tcp),
            };
            let at_ns = at.as_nanos();
            FlowSpec {
                at_ns,
                bytes: 100_000,
                protocol,
                pair,
            }
        })
        .collect();
    let last = arrivals.last().map_or(SimTime::ZERO, |&(t, _)| t);
    let end = horizon + SimDuration::from_secs(30);
    let (topology, grace) = (Topology::ParkingLot(spec), end.saturating_since(last));
    let case = CaseSpec::new(0x9a9a, topology, flows, grace);
    // Flow ids are 1 + arrival index.
    let records: Vec<_> = run_figure(&case)
        .records
        .into_iter()
        .filter(|r| through[r.flow.0 as usize - 1])
        .collect();
    FctStats::from_records(
        &records,
        crate::metrics::censored_count(through_started, records.len(), "multihop/through"),
    )
}

/// Render the multihop extension figure.
pub fn figures(ctx: &RunCtx) -> Vec<Figure> {
    let scale = ctx.scale;
    let mut fig = Figure::new(
        "multihop",
        "Extension: through-flow FCT across a 3-hop parking lot with per-hop cross traffic",
        "per-hop cross utilization (%)",
        "mean through-flow FCT (ms)",
    );
    let utils = scale.pick(vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6], vec![0.2, 0.4]);
    let protos = [
        Protocol::Tcp,
        Protocol::Tcp10,
        Protocol::JumpStart,
        Protocol::Halfback,
    ];
    // One harness job per (protocol, cross-utilization) cell.
    let grid: Vec<(Protocol, f64)> = protos
        .into_iter()
        .flat_map(|p| utils.iter().map(move |&u| (p, u)))
        .collect();
    let stats = crate::harness::parallel_map(
        ctx,
        grid,
        |&(p, u)| format!("multihop/{}/x{:.0}", p.name(), u * 100.0),
        |(p, u)| run_through(p, u, scale),
    );
    for (pi, p) in protos.into_iter().enumerate() {
        let pts: Vec<(f64, f64)> = utils
            .iter()
            .zip(&stats[pi * utils.len()..(pi + 1) * utils.len()])
            .map(|(&u, s)| (u * 100.0, s.mean_ms))
            .collect();
        let last = pts.last().map(|&(_, y)| y).unwrap_or(f64::NAN);
        fig.note(format!(
            "{}: FCT at heaviest cross load {:.0} ms",
            p.name(),
            last
        ));
        fig.push_series(p.name(), pts);
    }
    fig.note(
        "Halfback's single-RTT pacing and ACK-clocked recovery survive multiple \
         bottlenecks: the ACK clock automatically tracks the slowest hop"
            .to_string(),
    );
    vec![fig]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn halfback_beats_tcp_across_multiple_hops() {
        let hb = run_through(Protocol::Halfback, 0.3, Scale::Quick);
        let tcp = run_through(Protocol::Tcp, 0.3, Scale::Quick);
        assert!(hb.completed > 0 && tcp.completed > 0);
        assert!(
            hb.mean_ms < tcp.mean_ms * 0.75,
            "Halfback {:.0} ms vs TCP {:.0} ms across 3 hops",
            hb.mean_ms,
            tcp.mean_ms
        );
    }

    #[test]
    fn a_multihop_cell_obeys_the_job_watchdog() {
        use crate::harness::{run_jobs, Job};
        // At 0.2 cross load no advance between two flow starts holds the
        // runner's 4096-event check stride, so the cap trips only because
        // the stride counts across advances.
        let cell = Job::new("multihop/capped", || {
            run_through(Protocol::Tcp, 0.2, Scale::Quick)
        });
        let ctx = RunCtx::new(Scale::Quick);
        let err = run_jobs(&ctx, vec![cell.with_caps(0, 10_000)])
            .remove(0)
            .unwrap_err();
        assert!(err.message.contains("event-count cap"), "{}", err.message);
    }

    #[test]
    fn through_flows_complete_under_cross_load() {
        for p in [Protocol::Halfback, Protocol::JumpStart] {
            let s = run_through(p, 0.4, Scale::Quick);
            assert!(
                s.completion_rate() > 0.9,
                "{p}: completion {}",
                s.completion_rate()
            );
        }
    }
}
