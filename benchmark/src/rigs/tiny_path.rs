//! The `tiny_path` rig: what `tiny_sims` is made of — thousands of
//! simulators that each live for a few thousand events. Every simulator is a
//! fresh `TransportSim`, a two-host path drawn from the PlanetLab-like
//! population (a fifth of them with wire loss, so their links leave the
//! engine's `plain` path) and one 100 KB flow, the eight evaluated schemes in
//! rotation. Per-simulator construction and teardown and the sparse
//! event-queue mode are exercised here and nowhere else. With no router in
//! the path every node is a host, so nearly all engine work is re-entrant
//! (`Ctx::send` from inside a host callback) and lands in `transport.host`.

use super::{single_threaded, FlowCounts, NetCounts, RigRun, Shim};
use crate::trace::{self, Span};
use baselines::path_cache;
use netsim::topology::build_path;
use netsim::{FlowId, SimDuration, SimTime};
use scenarios::Protocol;
use transport::{Host, TransportSim};
use workload::planetlab_paths;

/// Simulators built and run per rig run.
pub const SIMS: usize = 20_000;
/// Flow size of the one flow each simulator carries.
pub const FLOW_BYTES: u64 = 100_000;

const GRACE: SimDuration = SimDuration::from_secs(120);

/// Run the rig once.
pub fn run(seed: u64, shim: Shim) -> RigRun {
    single_threaded(shim, |run| {
        simulate_all(seed, shim, &mut run.net, &mut run.flows)
    })
}

fn simulate_all(seed: u64, shim: Shim, counts: &mut NetCounts, flows: &mut FlowCounts) {
    let paths = trace::within(Span::Build, || planetlab_paths(SIMS, seed));
    for (i, spec) in paths.iter().enumerate() {
        let protocol = Protocol::EVALUATED[i % Protocol::EVALUATED.len()];
        let (mut sim, net, cache) = trace::within(Span::SimBuild, || {
            let mut sim = TransportSim::new(seed ^ i as u64);
            let net = build_path(&mut sim, spec, |_| shim.host());
            sim.with_node_mut::<Host, _>(net.sender, |h, _| h.wire(net.sender, net.forward))
                .expect("a shimmed host still downcasts to Host");
            sim.with_node_mut::<Host, _>(net.receiver, |h, _| h.wire(net.receiver, net.reverse));
            (sim, net, path_cache())
        });
        flows.started += 1;
        trace::within(Span::StartFlow, || {
            let strategy = shim.strategy(protocol, &cache, (net.sender, net.receiver));
            sim.with_node_mut::<Host, _>(net.sender, |h, core| {
                h.start_flow(core, FlowId(1), net.receiver, FLOW_BYTES, strategy)
            });
        });
        counts.sample_pending(&sim);
        trace::within(Span::RunUntil, || sim.run_until(SimTime::ZERO + GRACE));
        // Collection includes the teardown of the simulator.
        trace::within(Span::Collect, || {
            let sim = sim;
            let host = sim.node_as::<Host>(net.sender).expect("sender is a Host");
            for r in host.completed() {
                flows.add_record(r);
            }
            let lossy: &[_] = if spec.loss.is_none() {
                &[]
            } else {
                std::slice::from_ref(&net.forward)
            };
            counts.add_sim(&sim, lossy);
        });
    }
}
