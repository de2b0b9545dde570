//! The `sharded_dense` scenario: a benchmark-owned copy of the
//! `planetlab100k` site shape on the public `netsim::shard` API, at a size
//! the CLI cannot express (`repro planetlab100k` has nothing between 0.1 s
//! and 155 s / 2 GiB).
//!
//! Eight partitions ("sites"), each a router with `hosts` hosts behind
//! 200 Mbps access links; every ordered site pair is joined by a 40 Gbps WAN
//! leg whose 20–79 ms propagation delay is the conservative barrier's
//! lookahead. Every host opens four 100 KB Halfback flows at `t = 0` to hosts
//! in other sites, so all flows are concurrent: a dense event wheel, a large
//! packet arena and a busy link pipeline, with per-flow setup negligible.
//! The seed picks each site's engine seed and shifts its destination
//! assignment.
//!
//! The same function serves the end-to-end child (`Shim(false)`, telemetry
//! off — exactly what a user of `run_sharded` would write) and the traced rig
//! (`Shim(true)`, telemetry on).

use crate::args::ShardedArgs;
use crate::rigs::{FlowCounts, NetCounts, RigRun, ShardCounts, Shim};
use crate::trace::{self, Span, TraceData};
use baselines::path_cache;
use netsim::link::LinkSpec;
use netsim::rng::SimRng;
use netsim::router::Router;
use netsim::shard::{run_sharded_with, ShardHandle, ShardHooks, WindowTelemetry};
use netsim::{FlowId, LinkId, NodeId, Rate, SimDuration, SimTime};
use scenarios::Protocol;
use std::time::Instant;
use transport::{Header, Host, TransportSim};

/// Partitions. Part of the scenario, never of the machine.
pub const SITES: usize = 8;
/// Flows every host opens at `t = 0`.
pub const FLOWS_PER_HOST: usize = 4;
/// Flow size, as §4.2 of the paper.
pub const FLOW_BYTES: u64 = 100_000;

/// Stragglers still live at this point of simulated time are censored.
const HORIZON: SimDuration = SimDuration::from_secs(180);

/// Packets and route tables speak global ids, strided so they can never
/// collide with a partition-local id.
fn global_id(site: usize, host: usize) -> NodeId {
    NodeId((site as u32 + 1) * 1_000_000 + host as u32)
}

fn wan_delay(src: usize, dst: usize) -> SimDuration {
    SimDuration::from_millis(20 + ((src * 7 + dst * 13) % 60) as u64)
}

/// Ingress stub link at site `dst` for packets from site `src`. Links per
/// partition: `2 * hosts` access links, then an (ingress, egress) pair per
/// remote site in ascending order.
fn ingress_link_id(dst: usize, src: usize, hosts: usize) -> LinkId {
    let pos = if src < dst { src } else { src - 1 };
    LinkId((2 * hosts + 2 * pos) as u32)
}

fn build_site(
    s: usize,
    handle: &mut ShardHandle<Header>,
    cfg: &ShardedArgs,
    shim: Shim,
) -> TransportSim {
    let hosts = cfg.hosts;
    let mut site_rng = SimRng::new(cfg.seed).fork_indexed("sharded-dense-site", s as u64);
    let mut sim = TransportSim::new(site_rng.seed());
    let router = sim.add_node(Box::new(Router::new()));
    assert_eq!(router, NodeId(0), "remote portals address the router as 0");

    let access = |src, dst| {
        LinkSpec::drop_tail(
            src,
            dst,
            Rate::from_mbps(200),
            SimDuration::from_micros(10),
            10_000_000,
        )
    };
    let wan = |src, dst| {
        LinkSpec::drop_tail(src, dst, Rate::from_gbps(40), SimDuration::ZERO, 64_000_000)
    };
    let mut host_nodes = Vec::with_capacity(hosts);
    for h in 0..hosts {
        let node = sim.add_node(shim.host());
        let up = sim.add_link(access(node, router));
        let down = sim.add_link(access(router, node));
        sim.with_node_mut::<Host, _>(node, |host, _| host.wire(global_id(s, h), up))
            .expect("a shimmed host still downcasts to Host");
        sim.node_as_mut::<Router>(router)
            .expect("node 0 is the router")
            .add_route(global_id(s, h), down);
        host_nodes.push(node);
    }

    // The egress link serializes at WAN rate with no delay of its own; the
    // portal adds the pair's propagation delay at hand-off, so all of it is
    // lookahead.
    for t in (0..SITES).filter(|&t| t != s) {
        let ingress = sim.add_link(wan(router, router));
        assert_eq!(ingress, ingress_link_id(s, t, hosts));
        let portal = handle.add_portal(
            &mut sim,
            t,
            NodeId(0),
            ingress_link_id(t, s, hosts),
            wan_delay(s, t),
        );
        let egress = sim.add_link(wan(router, portal));
        let r = sim
            .node_as_mut::<Router>(router)
            .expect("node 0 is the router");
        for j in 0..hosts {
            r.add_route(global_id(t, j), egress);
        }
    }

    let shift = site_rng.index(hosts);
    let cache = path_cache();
    for (h, &node) in host_nodes.iter().enumerate() {
        for f in 0..FLOWS_PER_HOST {
            let t = (s + 1 + (h + f) % (SITES - 1)) % SITES;
            let j = (h * 31 + f * 17 + s + shift) % hosts;
            let flow = FlowId(((s * hosts + h) * FLOWS_PER_HOST + f + 1) as u64);
            let (src, dst) = (global_id(s, h), global_id(t, j));
            let strategy = shim.strategy(Protocol::Halfback, &cache, (src, dst));
            sim.with_node_mut::<Host, _>(node, |host, core| {
                host.start_flow(core, flow, dst, FLOW_BYTES, strategy)
            });
        }
    }
    sim
}

struct SiteTally {
    net: NetCounts,
    flows: FlowCounts,
    unroutable: u64,
    trace: TraceData,
}

fn finish_site(sim: &mut TransportSim, hosts: usize) -> SiteTally {
    let mut flows = FlowCounts {
        started: (hosts * FLOWS_PER_HOST) as u64,
        ..FlowCounts::default()
    };
    for h in 0..hosts {
        let host = sim
            .node_as::<Host>(NodeId(1 + h as u32))
            .expect("nodes 1..=hosts are Hosts");
        for r in host.completed() {
            flows.add_record(r);
        }
    }
    let mut net = NetCounts::default();
    net.add_sim(sim, &[]);
    SiteTally {
        net,
        flows,
        unroutable: sim
            .node_as::<Router>(NodeId(0))
            .expect("node 0 is the router")
            .unroutable(),
        trace: TraceData::default(),
    }
}

/// Shard-engine counts from the per-(window, partition) telemetry records.
fn shard_counts(
    tele: &[WindowTelemetry],
    threads: usize,
    windows: u64,
    cross_messages: u64,
) -> ShardCounts {
    let mut counts = ShardCounts {
        windows,
        cross_messages,
        imbalance: 1.0,
        ..ShardCounts::default()
    };
    let (mut busiest, mut total) = (0u64, 0u64);
    for window in tele.chunk_by(|a, b| a.window == b.window) {
        let mut per_thread = vec![0u64; threads];
        for r in window {
            counts.window_ns += r.wall_window_ns;
            per_thread[r.part % threads] += r.events;
            // Barrier time is per thread; partitions sharing a thread repeat
            // it, so read it off the partition whose rank is the thread's.
            if r.part < threads {
                counts.barrier_ns += r.wall_barrier_ns;
            }
        }
        busiest += per_thread.iter().max().copied().unwrap_or(0);
        total += per_thread.iter().sum::<u64>();
    }
    if total > 0 {
        counts.imbalance = busiest as f64 * threads as f64 / total as f64;
    }
    counts
}

/// Build all partitions and, unless `cfg.build_only`, run them to the
/// horizon. `telemetry` turns on `ShardHooks::telemetry`, which the traced
/// rig needs for barrier and window times.
pub fn run(cfg: &ShardedArgs, shim: Shim, telemetry: bool) -> RigRun {
    let started = Instant::now();
    let threads = cfg.threads.min(SITES);
    let horizon = if cfg.build_only {
        SimTime::ZERO
    } else {
        SimTime::ZERO + HORIZON
    };
    let hooks = ShardHooks {
        telemetry,
        ..ShardHooks::default()
    };
    let run = run_sharded_with(
        SITES,
        threads,
        Some(horizon),
        hooks,
        |s, handle: &mut ShardHandle<Header>| {
            if shim.0 && !trace::is_on() {
                trace::start();
            }
            trace::within(Span::Build, || build_site(s, handle, cfg, shim))
        },
        |_, sim: &mut TransportSim| {
            let mut tally = trace::within(Span::Finish, || finish_site(sim, cfg.hosts));
            if shim.0 {
                // Hand over what this worker thread has recorded so far and
                // keep recording for the partitions it still has to finish.
                tally.trace = trace::stop();
                trace::start();
            }
            tally
        },
    );

    let mut out = RigRun {
        threads: threads as u64,
        ..RigRun::default()
    };
    for tally in run.results {
        assert_eq!(
            tally.unroutable, 0,
            "a site router dropped routable traffic"
        );
        out.net.merge(&tally.net);
        out.flows.merge(tally.flows);
        out.trace.merge(tally.trace);
    }
    let tele = run.telemetry.unwrap_or_default();
    out.net.pending_events_max = tele.iter().map(|r| r.wheel_depth).max().unwrap_or(0);
    out.shard = Some(shard_counts(&tele, threads, run.rounds, run.cross_messages));
    out.wall_ns = started.elapsed().as_nanos() as u64;
    out
}

/// The line the end-to-end child prints: every simulated outcome of the run
/// and nothing that depends on the machine or the thread count. The parent
/// hashes it into `sim.digest`.
pub fn outcome_line(run: &RigRun) -> String {
    let shard = run.shard.as_ref().expect("a sharded run");
    format!(
        "sharded_dense started={} completed={} aborted={} censored={} events={} windows={} \
         cross_messages={} fct_sum_ns={} fct_max_ns={} wire_bytes={} proactive_copies={}",
        run.flows.started,
        run.flows.completed(),
        run.flows.aborted,
        run.flows.unfinished(),
        run.net.events,
        shard.windows,
        shard.cross_messages,
        run.flows.fct_ns.iter().map(|&ns| ns as u128).sum::<u128>(),
        run.flows.fct_ns.iter().max().copied().unwrap_or(0),
        run.flows.wire_bytes,
        run.flows.proactive_copies,
    )
}

/// Entry point of `hbbench child sharded_dense …`.
pub fn child_main(cfg: &ShardedArgs) {
    let run = run(cfg, Shim(false), false);
    println!("{}", outcome_line(&run));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(threads: usize, seed: u64) -> ShardedArgs {
        ShardedArgs {
            hosts: 6,
            threads,
            seed,
            build_only: false,
        }
    }

    #[test]
    fn outcome_is_independent_of_threads_and_moves_with_the_seed() {
        let one = run(&cfg(1, 7), Shim(false), false);
        let two = run(&cfg(2, 7), Shim(false), false);
        assert_eq!(outcome_line(&one), outcome_line(&two));
        assert_eq!(one.flows.started, (SITES * 6 * FLOWS_PER_HOST) as u64);
        assert_eq!(one.flows.completed(), one.flows.started);
        assert_ne!(
            outcome_line(&one),
            outcome_line(&run(&cfg(1, 8), Shim(false), false))
        );
    }

    #[test]
    fn build_only_fires_no_event() {
        let built = run(
            &ShardedArgs {
                build_only: true,
                ..cfg(2, 7)
            },
            Shim(false),
            false,
        );
        assert_eq!(built.net.events, 0);
        assert_eq!(built.flows.completed(), 0);
    }

    #[test]
    fn telemetry_counts_close_and_imbalance_is_one_on_one_thread() {
        let r = run(&cfg(1, 7), Shim(true), true);
        let shard = r.shard.clone().unwrap();
        assert!(shard.windows > 0 && shard.window_ns > 0);
        assert_eq!(shard.imbalance, 1.0);
        assert_eq!(r.trace.calls(|s| s == Span::Build), SITES as u64);
        assert!(r.trace.calls(Span::is_host_dispatch) > 0);
        let two = run(&cfg(2, 7), Shim(true), true);
        assert!(two.shard.as_ref().unwrap().imbalance >= 1.0);
        assert_eq!(
            two.simulated(),
            r.simulated(),
            "threads changed the simulation"
        );
    }
}
