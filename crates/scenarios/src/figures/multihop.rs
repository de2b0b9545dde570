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
use crate::{Protocol, Scale};
use baselines::path_cache;
use netsim::rng::SimRng;
use netsim::topology::{build_parking_lot, ParkingLotSpec};
use netsim::{FlowId, SimDuration, SimTime};
use transport::{Host, TransportSim};
use workload::PoissonArrivals;

/// Run through-flows of one scheme across a 3-hop parking lot while TCP
/// cross traffic loads each hop at `cross_util` of its capacity.
pub fn run_through(protocol: Protocol, cross_util: f64, scale: Scale) -> FctStats {
    let spec = ParkingLotSpec::emulab_like(3);
    let mut sim = TransportSim::new(0x9a9a);
    let net = build_parking_lot(&mut sim, &spec, || Box::new(Host::new()));

    // Wire every host.
    let wire = |sim: &mut TransportSim, hosts: &[netsim::NodeId], egress: &[netsim::LinkId]| {
        for (&h, &e) in hosts.iter().zip(egress) {
            sim.with_node_mut::<Host, _>(h, |host, _| host.wire(h, e));
        }
    };
    wire(&mut sim, &net.through_senders, &net.through_egress);
    wire(
        &mut sim,
        &net.through_receivers,
        &net.through_receiver_egress,
    );
    for (ss, rs, ses, res) in &net.cross {
        wire(&mut sim, ss, ses);
        wire(&mut sim, rs, res);
    }

    let horizon =
        SimTime::ZERO + scale.pick(SimDuration::from_secs(120), SimDuration::from_secs(30));
    let cache = path_cache();
    let mut next_flow = 1u64;

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

    let mut through_started = 0usize;
    for (i, (at, which)) in arrivals.into_iter().enumerate() {
        sim.run_until(at);
        let flow = FlowId(next_flow);
        next_flow += 1;
        match which {
            None => {
                // Through flow under test.
                let pair = through_started % net.through_senders.len();
                through_started += 1;
                let (src, dst) = (net.through_senders[pair], net.through_receivers[pair]);
                let strategy = protocol.make(&cache, (src, dst));
                sim.with_node_mut::<Host, _>(src, |h, core| {
                    h.start_flow(core, flow, dst, 100_000, strategy)
                });
            }
            Some(hop) => {
                // Cross traffic is always TCP.
                let (ss, rs, _, _) = &net.cross[hop];
                let pair = i % ss.len();
                let (src, dst) = (ss[pair], rs[pair]);
                let strategy = Protocol::Tcp.make(&cache, (src, dst));
                sim.with_node_mut::<Host, _>(src, |h, core| {
                    h.start_flow(core, flow, dst, 100_000, strategy)
                });
            }
        }
    }
    sim.run_until(horizon + SimDuration::from_secs(30));
    crate::harness::meter_add(
        sim.now().saturating_since(SimTime::ZERO).as_nanos(),
        sim.events_processed(),
    );

    let mut records = Vec::new();
    for &h in &net.through_senders {
        records.extend(sim.node_as::<Host>(h).unwrap().completed().iter().cloned());
    }
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
