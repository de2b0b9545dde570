//! The scaled PlanetLab scenario: the §4.2 global-Internet evaluation
//! grown past 100 K concurrent flows and run on the sharded engine.
//!
//! Eight *sites* (one partition each — the partition count is part of the
//! scenario, never of the machine) hold a router plus `H` hosts behind
//! access links; every ordered site pair is connected by a WAN leg whose
//! propagation delay doubles as the conservative-barrier lookahead (see
//! `netsim::shard`). Every host opens `F` Halfback flows of 100 KB at
//! `t = 0` to hosts in other sites — at full scale that is
//! 8 × 2048 × 7 = 114,688 concurrent short flows, the incast-heavy
//! "internet weather" regime the ROADMAP points at.
//!
//! `--shards N` maps the eight partitions onto N worker threads; the
//! figure output and the work metered into `manifest.json` are identical
//! for every N (pinned by `harness_determinism.rs`).
//!
//! ## Addressing
//!
//! Hosts are wired with **global** ids (`site * 1e6`-strided), which is
//! what flows, packets, and route tables speak; engine-local ids stay a
//! per-partition detail. Cross-site packets leave through a zero-delay
//! egress link into a portal, cross by value, and are injected on the
//! destination router with the pair's ingress stub link as the
//! conservation anchor.

use crate::harness::{run_jobs, Job, RunCtx};
use crate::metrics::sketch_line;
use crate::report::Figure;
use crate::{Protocol, Scale};
use baselines::path_cache;
use netsim::link::LinkSpec;
use netsim::router::Router;
use netsim::shard::{run_sharded_with, Heartbeat, ShardHandle, ShardHooks, WindowTelemetry};
use netsim::stats::WindowedSketch;
use netsim::{FlowId, LinkId, NodeId, Rate, SimDuration, SimTime};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use transport::{Header, Host, TransportSim};

/// Number of sites (= partitions). Fixed: changing it changes the
/// scenario, not the execution.
pub const SITES: usize = 8;

/// Flow size, as in §4.2 (100 KB).
pub const FLOW_BYTES: u64 = 100_000;

/// Hosts per site.
pub fn hosts_per_site(scale: Scale) -> usize {
    scale.pick(2048, 32)
}

/// Flows opened by each host at `t = 0`.
pub fn flows_per_host(scale: Scale) -> usize {
    scale.pick(7, 2)
}

/// Virtual-time cap: stragglers still live at this point are censored.
const HORIZON: SimDuration = SimDuration::from_secs(180);

/// Global id of host `h` of site `s` — the id space packets and route
/// tables use. Strided so it can never collide with any partition-local
/// id (those stay below ~5 K even at full scale).
fn global_id(site: usize, host: usize) -> NodeId {
    NodeId((site as u32 + 1) * 1_000_000 + host as u32)
}

/// One-way WAN propagation delay for the ordered site pair `(src, dst)`:
/// 20–79 ms, deterministic in the pair. The minimum over all pairs is the
/// sharded engine's lookahead window.
fn wan_delay(src: usize, dst: usize) -> SimDuration {
    SimDuration::from_millis(20 + ((src * 7 + dst * 13) % 60) as u64)
}

/// Ingress stub link id for packets arriving at site `dst` from site
/// `src`. Link layout per partition: `2H` access links first, then an
/// (ingress, egress) pair per remote site in ascending order.
fn ingress_link_id(dst: usize, src: usize, hosts: usize) -> LinkId {
    let pos = if src < dst { src } else { src - 1 };
    LinkId((2 * hosts + 2 * pos) as u32)
}

/// Build one site: router (local id 0), `H` hosts with up/down access
/// links, and a portal + egress/ingress link pair per remote site. All
/// `F` flows per host start at `t = 0` before the engine runs.
fn build_site(s: usize, handle: &mut ShardHandle<Header>, scale: Scale) -> TransportSim {
    let hosts = hosts_per_site(scale);
    let flows = flows_per_host(scale);
    let access_rate = Rate::from_mbps(200);
    let wan_rate = Rate::from_gbps(40);

    let mut sim = TransportSim::new(9_000 + s as u64);
    let router = sim.add_node(Box::new(Router::new()));
    debug_assert_eq!(router, NodeId(0));

    let mut host_nodes = Vec::with_capacity(hosts);
    for h in 0..hosts {
        let node = sim.add_node(Box::new(Host::new()));
        let up = sim.add_link(LinkSpec::drop_tail(
            node,
            router,
            access_rate,
            SimDuration::from_micros(10),
            10_000_000,
        ));
        let down = sim.add_link(LinkSpec::drop_tail(
            router,
            node,
            access_rate,
            SimDuration::from_micros(10),
            10_000_000,
        ));
        sim.with_node_mut::<Host, _>(node, |host, _| host.wire(global_id(s, h), up));
        sim.node_as_mut::<Router>(router)
            .unwrap()
            .add_route(global_id(s, h), down);
        host_nodes.push(node);
    }

    // Portals: the egress link serializes at WAN rate with zero local
    // delay; the portal adds the pair's propagation delay at handoff, so
    // the delay is all lookahead.
    let mut egress_of = [None; SITES];
    for t in (0..SITES).filter(|&t| t != s) {
        let ingress = sim.add_link(LinkSpec::drop_tail(
            router,
            router,
            wan_rate,
            SimDuration::ZERO,
            64_000_000,
        ));
        debug_assert_eq!(ingress, ingress_link_id(s, t, hosts));
        let portal = handle.add_portal(
            &mut sim,
            t,
            NodeId(0), // the remote router is always local id 0
            ingress_link_id(t, s, hosts),
            wan_delay(s, t),
        );
        let egress = sim.add_link(LinkSpec::drop_tail(
            router,
            portal,
            wan_rate,
            SimDuration::ZERO,
            64_000_000,
        ));
        egress_of[t] = Some(egress);
    }
    for t in (0..SITES).filter(|&t| t != s) {
        let egress = egress_of[t].unwrap();
        let r = sim.node_as_mut::<Router>(router).unwrap();
        for j in 0..hosts {
            r.add_route(global_id(t, j), egress);
        }
    }

    // Flow fan-out: host (s, h) opens flow f to a deterministic host in a
    // deterministic *other* site. Flow ids are globally unique.
    let cache = path_cache();
    for (h, &node) in host_nodes.iter().enumerate() {
        for f in 0..flows {
            let t = (s + 1 + (h + f) % (SITES - 1)) % SITES;
            let j = (h * 31 + f * 17 + s) % hosts;
            let flow = FlowId(((s * hosts + h) * flows + f + 1) as u64);
            let (src_g, dst_g) = (global_id(s, h), global_id(t, j));
            let strategy = Protocol::Halfback.make(&cache, (src_g, dst_g));
            sim.with_node_mut::<Host, _>(node, |host, core| {
                host.start_flow(core, flow, dst_g, FLOW_BYTES, strategy)
            });
        }
    }
    sim
}

/// FCT sketch window width: 10 s of virtual time, so the 180 s horizon
/// yields at most 18 per-window snapshots.
const FCT_WINDOW_NS: u64 = 10_000_000_000;

/// Warm-up trim for the FCT sketch. Zero here — every flow starts at
/// `t = 0`, so there is no ramp-up to discard — but the plumbing is the
/// same one open-loop scenarios will set to a real value.
const FCT_WARMUP_NS: u64 = 0;

/// Per-partition tally extracted after the run. Flow completion times are
/// aggregated into a windowed log-histogram sketch at extraction — no
/// per-flow record is ever retained, which is what drops the scenario's
/// memory ceiling from O(flows) to O(buckets).
struct SiteTally {
    fct: WindowedSketch,
    completed: usize,
    aborted: usize,
    unroutable: u64,
    events: u64,
    now_ns: u64,
}

fn finish_site(_s: usize, sim: &mut TransportSim, scale: Scale) -> SiteTally {
    let hosts = hosts_per_site(scale);
    let mut fct = WindowedSketch::new(FCT_WINDOW_NS, FCT_WARMUP_NS);
    let mut completed = 0usize;
    let mut aborted = 0usize;
    for h in 0..hosts {
        let host = sim.node_as::<Host>(NodeId(1 + h as u32)).unwrap();
        for r in host.completed() {
            if r.outcome.is_completed() {
                fct.add(r.done_at.as_nanos(), r.fct.as_millis_f64());
                completed += 1;
            } else {
                aborted += 1;
            }
        }
    }
    SiteTally {
        fct,
        completed,
        aborted,
        unroutable: sim.node_as::<Router>(NodeId(0)).unwrap().unroutable(),
        events: sim.events_processed(),
        now_ns: sim.now().as_nanos(),
    }
}

/// Count of flows a partition has finished (completed or aborted) — the
/// heartbeat's "flows done" probe, run after each window.
fn flows_done(sim: &TransportSim, scale: Scale) -> u64 {
    let hosts = hosts_per_site(scale);
    let mut done = 0u64;
    for h in 0..hosts {
        let host = sim.node_as::<Host>(NodeId(1 + h as u32)).unwrap();
        done += host.completed().len() as u64;
    }
    done
}

/// Merged outcome of one sharded run.
pub struct ShardedOutcome {
    /// Flow completion times (ms) in 10 s virtual-time windows, merged
    /// across sites in rank order — exact integer-bucket merges, so the
    /// aggregate is byte-identical for any `--shards N`.
    pub fct: WindowedSketch,
    /// Flows that completed.
    pub completed: usize,
    /// Flows that gave up.
    pub aborted: usize,
    /// Flows still live at the horizon.
    pub censored: usize,
    /// Flows started.
    pub started: usize,
    /// Conservative windows executed.
    pub rounds: u64,
    /// Cross-site packets injected at barriers.
    pub cross_messages: u64,
    /// Per-window shard runtime records, when `ctx.telemetry` is set.
    pub telemetry: Option<Vec<WindowTelemetry>>,
}

/// Run the scenario on `ctx.shards` shard workers at `ctx.scale`. Output
/// is independent of the thread count — that is the whole point. Events
/// and virtual time go to the job meter; with `ctx.progress` a stderr
/// heartbeat fires every few seconds (never touching `out/`, so
/// byte-identity across `--jobs`/`--shards` is preserved).
pub fn run(ctx: &RunCtx) -> ShardedOutcome {
    let scale = ctx.scale;
    let started = SITES * hosts_per_site(scale) * flows_per_host(scale);
    let last_beat: Mutex<Instant> = Mutex::new(Instant::now());
    let heartbeat = move |b: &Heartbeat| {
        if !ctx.progress {
            return;
        }
        let mut last = last_beat.lock().unwrap();
        if last.elapsed() < Duration::from_secs(2) {
            return;
        }
        *last = Instant::now();
        eprintln!(
            ":: planetlab100k: window {}, virtual {:.1}s, {}/{} flows done across {} sites",
            b.round,
            b.now_ns as f64 / 1e9,
            b.done,
            started,
            b.parts,
        );
    };
    let progress = move |_rank: usize, sim: &mut TransportSim| flows_done(sim, scale);
    let hooks = ShardHooks {
        telemetry: ctx.telemetry.is_some(),
        progress: Some(&progress),
        heartbeat: Some(&heartbeat),
    };
    let run = run_sharded_with(
        SITES,
        ctx.shards,
        Some(SimTime::ZERO + HORIZON),
        hooks,
        |s, handle: &mut ShardHandle<Header>| build_site(s, handle, scale),
        |s, sim: &mut TransportSim| finish_site(s, sim, scale),
    );
    let mut fct = WindowedSketch::new(FCT_WINDOW_NS, FCT_WARMUP_NS);
    let mut completed = 0;
    let mut aborted = 0;
    let (mut events, mut now_ns) = (0u64, 0u64);
    // Merge in rank order: bucket counts make the merge exact, and the
    // fixed order makes the float mean deterministic too.
    for tally in run.results {
        assert_eq!(tally.unroutable, 0, "site router dropped routable traffic");
        fct.merge(&tally.fct);
        completed += tally.completed;
        aborted += tally.aborted;
        events += tally.events;
        now_ns = now_ns.max(tally.now_ns);
    }
    crate::harness::meter_add(now_ns, events);
    ShardedOutcome {
        censored: started - completed - aborted,
        completed,
        aborted,
        started,
        fct,
        rounds: run.rounds,
        cross_messages: run.cross_messages,
        telemetry: run.telemetry,
    }
}

/// Render the `planetlab100k` figure: Halfback's FCT distribution at
/// 100 K+ concurrent flows, plus run-shape notes. Everything here is a
/// function of the scenario alone — shard-thread count never leaks in
/// (the telemetry JSONL quarantines its wall-clock fields separately).
pub fn figures(ctx: &RunCtx) -> Vec<Figure> {
    // One job: the parallelism is inside the simulation, and the job meter
    // reports its events and virtual time like any other experiment's.
    let job = Job::new("planetlab100k", || run(ctx));
    let out = run_jobs(ctx, vec![job])
        .remove(0)
        .unwrap_or_else(|p| panic!("{p}"));
    if let (Some(path), Some(records)) = (&ctx.telemetry, &out.telemetry) {
        if let Err(e) = crate::telemetry::write_jsonl(path, "planetlab100k", SITES, records) {
            eprintln!("warning: telemetry write to {} failed: {e}", path.display());
        }
    }

    // The FCT quantile sketch, merged exactly across sites and windows —
    // no per-flow state anywhere.
    let agg = out.fct.aggregate();
    ctx.record_sketch_mem(agg.memory_bytes() + out.fct.memory_bytes());

    let mut fig = Figure::new(
        "planetlab100k",
        "Scaled PlanetLab: Halfback FCT at 100K+ concurrent short flows (CDF)",
        "latency (ms)",
        "percent of flows",
    );
    fig.push_series("Halfback", agg.cdf_series());
    fig.note(format!(
        "{} flows started: {} sites x {} hosts x {} flows/host, {} B each, all at t=0",
        out.started,
        SITES,
        hosts_per_site(ctx.scale),
        flows_per_host(ctx.scale),
        FLOW_BYTES,
    ));
    fig.note(format!(
        "completed {}, aborted {}, censored {} (horizon {}s)",
        out.completed,
        out.aborted,
        out.censored,
        HORIZON.as_secs_f64(),
    ));
    fig.note(format!("flows_aborted = {}", out.aborted));
    fig.note(format!("flows_censored = {}", out.censored));
    fig.note(format!("flows_completed = {}", out.completed));
    fig.note(format!("flows_started = {}", out.started));
    fig.note(sketch_line("fct_ms", &agg));
    let per_window: Vec<String> = out
        .fct
        .windows()
        .iter()
        .map(|w| w.count().to_string())
        .collect();
    fig.note(format!(
        "completions per {}s window: {}",
        FCT_WINDOW_NS / 1_000_000_000,
        per_window.join("/"),
    ));
    fig.note(format!(
        "sharded engine: {} partitions, {} conservative windows, {} cross-site packet crossings",
        SITES, out.rounds, out.cross_messages,
    ));
    vec![fig]
}
