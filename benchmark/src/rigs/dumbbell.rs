//! The `congested_dumbbell` rig: the shape the figure sweeps of
//! `dumbbell_figures` share — `build_dumbbell`, a pre-drawn Poisson schedule
//! of 100 KB flows, one scheme per run — at a load where the bottleneck queue
//! overflows, so SACK recovery, RTOs and ROPR repair all run. It follows
//! `scenarios::runner::run_dumbbell`, which cannot take shimmed hosts.

use super::{single_threaded, FlowCounts, NetCounts, RigRun, Shim};
use crate::trace::{self, Span};
use baselines::path_cache;
use netsim::rng::SimRng;
use netsim::topology::{build_dumbbell, Dumbbell, DumbbellSpec};
use netsim::{FlowId, SimDuration, SimTime};
use scenarios::Protocol;
use transport::strategy::Strategy;
use transport::{Header, Host, TransportSim};
use workload::Schedule;

/// The schemes the rig runs, one simulation each: the baseline, the scheme
/// whose naive loss re-marking the paper blames, and the paper's own.
pub const PROTOCOLS: [Protocol; 3] = [Protocol::Tcp, Protocol::JumpStart, Protocol::Halfback];
/// Flow size, as §4.3 of the paper.
pub const FLOW_BYTES: u64 = 100_000;
/// Offered payload utilization of the bottleneck.
pub const UTILIZATION: f64 = 0.6;
/// Simulated seconds of arrivals per scheme.
pub const HORIZON_S: u64 = 200;
/// Host pairs, as `RunOptions::default()`.
pub const HOST_PAIRS: usize = 12;

const GRACE: SimDuration = SimDuration::from_secs(30);

/// Run the rig once: one congested dumbbell per scheme in [`PROTOCOLS`].
pub fn run(seed: u64, shim: Shim) -> RigRun {
    single_threaded(shim, |run| {
        for protocol in PROTOCOLS {
            run_one(protocol, seed, shim, &mut run.net, &mut run.flows);
        }
    })
}

/// Build one congested dumbbell for `protocol`, run `horizon_s` simulated
/// seconds of arrivals plus the drain, and hand back the finished simulator
/// with the number of flows started. `make_strategy` passes each flow's
/// strategy through (wrapping it, when shimming); `between_flows` sees the
/// simulator at every arrival instant.
pub fn simulate(
    protocol: Protocol,
    seed: u64,
    horizon_s: u64,
    make_host: impl Fn() -> Box<dyn netsim::Node<Header>>,
    make_strategy: impl Fn(Box<dyn Strategy>) -> Box<dyn Strategy>,
    mut between_flows: impl FnMut(&TransportSim),
) -> (TransportSim, Dumbbell, u64) {
    let build = trace::enter(Span::Build);
    let spec = DumbbellSpec::emulab(HOST_PAIRS);
    // The same schedule for every scheme, as the paper's comparisons use.
    let schedule = trace::within(Span::Arrival, || {
        Schedule::fixed_size(
            spec.bottleneck_rate,
            FLOW_BYTES,
            UTILIZATION,
            SimTime::ZERO + SimDuration::from_secs(horizon_s),
            SimRng::new(seed).fork("congested-dumbbell"),
        )
    });
    let mut sim = TransportSim::new(seed);
    let net = build_dumbbell(&mut sim, &spec, |_, _| make_host());
    for i in 0..HOST_PAIRS {
        let (h, e) = (net.left_hosts[i], net.left_egress[i]);
        sim.with_node_mut::<Host, _>(h, |host, _| host.wire(h, e))
            .expect("a shimmed host still downcasts to Host");
        let (h, e) = (net.right_hosts[i], net.right_egress[i]);
        sim.with_node_mut::<Host, _>(h, |host, _| host.wire(h, e));
    }
    let cache = path_cache();
    trace::exit(build);

    let mut last = SimTime::ZERO;
    for (i, &(at, bytes)) in schedule.flows.iter().enumerate() {
        trace::within(Span::RunUntil, || sim.run_until(at));
        between_flows(&sim);
        let (src, dst) = (
            net.left_hosts[i % HOST_PAIRS],
            net.right_hosts[i % HOST_PAIRS],
        );
        let flow = FlowId(i as u64 + 1);
        trace::within(Span::StartFlow, || {
            let strategy = make_strategy(protocol.make(&cache, (src, dst)));
            sim.with_node_mut::<Host, _>(src, |h, core| {
                h.start_flow(core, flow, dst, bytes, strategy)
            });
        });
        last = at;
    }
    trace::within(Span::RunUntil, || sim.run_until(last + GRACE));
    (sim, net, schedule.flows.len() as u64)
}

fn run_one(
    protocol: Protocol,
    seed: u64,
    shim: Shim,
    counts: &mut NetCounts,
    flows: &mut FlowCounts,
) {
    let (sim, net, started) = simulate(
        protocol,
        seed,
        HORIZON_S,
        || shim.host(),
        |strategy| shim.wrap_strategy(strategy),
        |sim| counts.sample_pending(sim),
    );
    trace::within(Span::Finish, || {
        flows.started += started;
        for &h in &net.left_hosts {
            let host = sim.node_as::<Host>(h).expect("left hosts are Hosts");
            for r in host.completed() {
                flows.add_record(r);
            }
        }
        counts.add_sim(&sim, &[]);
    });
}
