//! `repro simcheck`: a deterministic invariant fuzzer with case shrinking.
//!
//! Each case is a seeded random scenario — a 1–3 hop chain with random
//! rates, delays, buffer sizes (sometimes below one MTU, exercising the
//! oversized-packet admission path), loss models, fault-injection events
//! and a mix of flows across every evaluated scheme — run end-to-end and
//! checked against a battery of oracles:
//!
//! * **conservation** — per-link packet books balance: everything offered is
//!   either dropped (down-window, queue) or serialized, and everything
//!   serialized (plus duplicates) is lost on the wire, blackholed, dropped
//!   as corrupt, or delivered. Queues dequeue exactly what they enqueued.
//! * **transport** — receiver-side byte accounting never exceeds the flow
//!   size ("ghost bytes"), the sender's cumulative ACK never moves
//!   backwards or past the flow end (checked live by the hosts with
//!   [`Host::check_invariants`]), and no packet goes stray.
//! * **terminal** — every flow reaches a terminal state (completed or
//!   aborted) before a generous horizon.
//! * **drain** — once all flows are terminal, the simulation drains clean:
//!   no live timers, busy links, or queued packets.
//! * **delivery** — a flow reported complete by the sender was actually
//!   delivered in full by the receiver, and the receiver never got more
//!   payload than the sender transmitted.
//! * **fct-bound** — no completion time beats the store-and-forward lower
//!   bound (two round trips plus serialization at the most optimistic
//!   bottleneck rate the case's fault steps allow).
//! * **rto-sanity** — a flow's RTO count is bounded by its length (a
//!   sender gives up after [`MAX_RTO_RETRIES`] timeouts without progress),
//!   and is exactly zero for a pristine (loss-free, fault-free,
//!   well-buffered) single flow.
//! * **differential** — on pristine RTT-dominated short-flow cases,
//!   Halfback's FCT does not lose to TCP's by more than a small tolerance
//!   (the paper's headline claim, checked as an invariant).
//!
//! On a violation the case is *shrunk*: flows, then fault events, then hops
//! are greedily dropped (highest index first, repeated to a fixed point)
//! while the violation still reproduces, and a one-line `repro simcheck
//! --seed … --case …` command for the minimal case is emitted together
//! with a merged flight-recorder trace. Generation, execution, shrinking
//! and reporting are all pure functions of `(seed, case id)`, so a battery
//! renders byte-identically for any `--jobs N`.
//!
//! [`run_case`] is the one runner for a fault-injected chain: `repro chaos`
//! and `repro trace` describe their paths as hand-written [`CaseSpec`]s and
//! run through it, so every chaos cell meets the same oracles as a random
//! case.

use crate::harness::{self, Job, JobPanic, RunCtx};
use crate::protocols::Protocol;
use crate::runner::run_until_checked;
use crate::trace::Streams;
use baselines::path_cache;
use netsim::link::LinkSpec;
use netsim::loss::LossModel;
use netsim::rng::SimRng;
use netsim::router::Router;
use netsim::{FaultSpec, FlowId, LinkId, NodeId, Rate, SimDuration, SimTime};
use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;
use transport::trace::FlowEventRecord;
use transport::wire::{flow_wire_bytes, segment_count};
use transport::{FlowOutcome, FlowRecord, Host, TransportSim, MAX_RTO_RETRIES};

/// Default battery size; `simcheck_batteries_are_byte_identical_across_worker_counts`
/// runs exactly this many cases at seed 42.
pub const DEFAULT_CASES: u64 = 200;

/// Per-case watchdog caps. A failing case re-runs while shrinking (a few
/// dozen trials at ~500 virtual seconds each), so the virtual-time cap is
/// sized for a full shrink, not a single run; the event cap is what
/// actually catches livelocked simulations.
const CASE_VIRTUAL_CAP_NS: u64 = 40_000 * 1_000_000_000;
const CASE_EVENT_CAP: u64 = 200_000_000;

/// Reverse (ACK-path) links get at least this much buffer so pure-ACK
/// congestion never confounds a forward-path oracle.
const REVERSE_BUFFER_FLOOR: u64 = 96_000;

/// Forward buffers at least this large make a case eligible for the
/// pristine oracles (Halfback's full first-RTT blast fits without loss).
const PRISTINE_BUFFER_BYTES: u64 = 150_000;

/// Rate palette (Mbps) for hops and rate-step faults.
const RATES_MBPS: [u64; 6] = [1, 2, 5, 10, 20, 50];
/// One-way delay palette (ms) for hops and delay-step faults.
const DELAYS_MS: [u64; 6] = [1, 5, 10, 20, 30, 50];
/// Flow-size palette (bytes), weighted toward the paper's short flows.
const FLOW_BYTES: [u64; 8] = [
    1_000, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 1_000_000,
];

/// One hop of the chain: a forward data link and a clean reverse ACK link.
#[derive(Debug, Clone)]
pub struct HopSpec {
    /// Serialization rate, both directions.
    pub rate_mbps: u64,
    /// One-way propagation delay, both directions.
    pub delay_ms: u64,
    /// Forward drop-tail buffer. Sometimes below one MTU, exercising the
    /// oversized-packet admission path in `DropTail`.
    pub buffer_bytes: u64,
    /// Random wire loss on the forward link.
    pub loss: LossModel,
}

impl HopSpec {
    /// A loss-free hop buffered at one bandwidth-delay product of its round
    /// trip, at least eight packets — the sizing of `PathSpec::clean`.
    pub fn clean(rate_mbps: u64, delay_ms: u64) -> HopSpec {
        let rtt = SimDuration::from_millis(2 * delay_ms);
        HopSpec {
            rate_mbps,
            delay_ms,
            buffer_bytes: Rate::from_mbps(rate_mbps).bytes_in(rtt).max(8 * 1500),
            loss: LossModel::None,
        }
    }
}

/// A fault-injection event targeting one forward hop. When the shrinker
/// removes hops, events on removed hops remap onto the last remaining one,
/// so shrinking hops never silently discards the fault under test.
#[derive(Debug, Clone)]
pub struct FaultEvent {
    /// Forward hop index the fault applies to.
    pub hop: usize,
    /// What the fault does.
    pub kind: FaultKind,
}

/// The fault vocabulary, mirroring [`FaultSpec`]'s builders. Reordering,
/// duplication and corruption are kept off the ACK path (faults install on
/// forward links only) so the cumulative-ACK monotonicity oracle stays
/// sound.
#[derive(Debug, Clone, Copy)]
#[allow(missing_docs)] // field names (start_ms, prob, …) are self-describing
pub enum FaultKind {
    /// Link refuses packets during a window.
    Down { start_ms: u64, dur_ms: u64 },
    /// Link swallows packets post-serialization during a window.
    Blackhole { start_ms: u64, dur_ms: u64 },
    /// Extra random per-packet delay (never negative).
    Reorder { prob: f64, max_extra_us: u64 },
    /// Random duplicate deliveries.
    Duplicate { prob: f64 },
    /// Random corruption (dropped at the next node).
    Corrupt { prob: f64 },
    /// Rate change at a point in time.
    RateStep { at_ms: u64, mbps: u64 },
    /// Delay change at a point in time.
    DelayStep { at_ms: u64, ms: u64 },
}

/// One flow of the case's workload.
#[derive(Debug, Clone)]
pub struct FlowSpec {
    /// Start time.
    pub at_ms: u64,
    /// Payload bytes.
    pub bytes: u64,
    /// Transmission scheme.
    pub protocol: Protocol,
}

/// A fully generated case: pure function of `(seed, id)`.
#[derive(Debug, Clone)]
pub struct CaseSpec {
    /// Battery seed.
    pub seed: u64,
    /// Case index within the battery.
    pub id: u64,
    /// Engine seed for the simulation itself.
    pub engine_seed: u64,
    /// The chain, sender side first.
    pub hops: Vec<HopSpec>,
    /// Fault events (possibly none).
    pub faults: Vec<FaultEvent>,
    /// Workload, sorted by start time.
    pub flows: Vec<FlowSpec>,
    /// Time after the last flow start by which every flow must be terminal;
    /// the run stops advancing the clock there before it drains.
    pub horizon: SimDuration,
    /// Test hook: deliberately report a conservation violation whenever at
    /// least one flow and one fault are selected, so the shrinker itself
    /// can be exercised end to end (`tests` only; never set by the CLI
    /// battery).
    pub break_conservation: bool,
}

impl CaseSpec {
    /// A hand-written one-hop case with `faults` on that hop: the shape of
    /// every `repro chaos` cell and `repro trace` path. It belongs to no
    /// battery, so its `seed` is the engine seed and its `id` 0.
    pub fn one_hop(
        engine_seed: u64,
        hop: HopSpec,
        faults: &[FaultKind],
        flows: Vec<FlowSpec>,
        horizon: SimDuration,
    ) -> CaseSpec {
        CaseSpec {
            seed: engine_seed,
            id: 0,
            engine_seed,
            hops: vec![hop],
            faults: faults
                .iter()
                .map(|&kind| FaultEvent { hop: 0, kind })
                .collect(),
            flows,
            horizon,
            break_conservation: false,
        }
    }
}

/// Which parts of a case are active: flow/fault indices into the spec and
/// a hop-count prefix. Shrinking only ever edits the selection — the spec
/// is immutable, so the emitted repro command stays a pure `(seed, id,
/// selection)` triple.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Selection {
    /// Indices into [`CaseSpec::flows`].
    pub flows: Vec<usize>,
    /// Indices into [`CaseSpec::faults`].
    pub faults: Vec<usize>,
    /// Number of leading hops kept (≥ 1).
    pub hops: usize,
}

impl Selection {
    /// Everything in the spec.
    pub fn full(spec: &CaseSpec) -> Selection {
        Selection {
            flows: (0..spec.flows.len()).collect(),
            faults: (0..spec.faults.len()).collect(),
            hops: spec.hops.len(),
        }
    }
}

/// One oracle violation. `kind` is the stable oracle name the shrinker
/// reproduces against; `detail` is the human-readable diagnosis.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Oracle that fired (`conservation`, `transport`, `terminal`, `drain`,
    /// `delivery`, `fct-bound`, `rto-sanity`, `differential`, or the
    /// harness-level `watchdog` / `panic`).
    pub kind: &'static str,
    /// What exactly went wrong.
    pub detail: String,
}

impl Violation {
    /// The verdict on a case whose job panicked instead of reporting:
    /// `watchdog` when the harness caps fired, `panic` otherwise.
    pub fn from_panic(p: JobPanic) -> Violation {
        let kind = if p.message.contains("watchdog") {
            "watchdog"
        } else {
            "panic"
        };
        Violation {
            kind,
            detail: p.message,
        }
    }
}

/// Everything one case execution produces.
#[derive(Debug, Default)]
pub struct CaseReport {
    /// Oracle violations in deterministic check order (empty = case ok).
    pub violations: Vec<Violation>,
    /// Flows that completed.
    pub completed: usize,
    /// Flows that gave up.
    pub aborted: usize,
    /// The sender's record of every terminal flow, in completion order.
    pub records: Vec<FlowRecord>,
    /// Queue drops summed over every link.
    pub queue_drops: u64,
    /// Non-queue losses ([`netsim::link::LinkStats::lost_total`]) summed
    /// over every link.
    pub link_lost: u64,
    /// The raw flight-recorder streams (empty unless recording was asked
    /// for).
    pub streams: Streams,
}

/// Generate case `id` of the battery seeded with `seed`. Deterministic and
/// independent of every other case (`fork_indexed` keyed by id).
pub fn generate_case(seed: u64, id: u64) -> CaseSpec {
    let mut rng = SimRng::new(seed).fork_indexed("simcheck-case", id);

    let n_hops = [1usize, 1, 1, 2, 2, 3][rng.index(6)];
    let hops: Vec<HopSpec> = (0..n_hops)
        .map(|_| {
            let rate_mbps = RATES_MBPS[rng.index(RATES_MBPS.len())];
            let delay_ms = DELAYS_MS[rng.index(DELAYS_MS.len())];
            // Bandwidth-delay product of this hop's RTT share, in bytes.
            let bdp = (rate_mbps * 125_000 * 2 * delay_ms) / 1000;
            let buffer_bytes = match rng.index(10) {
                // Sub-MTU buffer: every data packet takes the
                // oversized-admission path in DropTail.
                0 => 600 + rng.index(900) as u64,
                1 | 2 => (bdp / 2).max(3_000),
                3..=6 => bdp.max(12_000),
                _ => (bdp * 2).max(24_000),
            };
            let loss = match rng.index(10) {
                7 => LossModel::Bernoulli {
                    p: rng.uniform_range(0.001, 0.02),
                },
                8 => LossModel::wifi_bursty(),
                9 => LossModel::Bernoulli { p: 0.05 },
                _ => LossModel::None,
            };
            HopSpec {
                rate_mbps,
                delay_ms,
                buffer_bytes,
                loss,
            }
        })
        .collect();

    let n_faults = rng.index(4);
    let faults: Vec<FaultEvent> = (0..n_faults)
        .map(|_| {
            let hop = rng.index(n_hops);
            let kind = match rng.index(7) {
                0 => FaultKind::Down {
                    start_ms: 100 + rng.index(2900) as u64,
                    dur_ms: 50 + rng.index(450) as u64,
                },
                1 => FaultKind::Blackhole {
                    start_ms: 100 + rng.index(2900) as u64,
                    dur_ms: 50 + rng.index(450) as u64,
                },
                2 => FaultKind::Reorder {
                    prob: rng.uniform_range(0.01, 0.2),
                    max_extra_us: 100 + rng.index(4900) as u64,
                },
                3 => FaultKind::Duplicate {
                    prob: rng.uniform_range(0.01, 0.1),
                },
                4 => FaultKind::Corrupt {
                    prob: rng.uniform_range(0.005, 0.05),
                },
                5 => FaultKind::RateStep {
                    at_ms: 200 + rng.index(2800) as u64,
                    mbps: RATES_MBPS[rng.index(RATES_MBPS.len())],
                },
                _ => FaultKind::DelayStep {
                    at_ms: 200 + rng.index(2800) as u64,
                    ms: DELAYS_MS[rng.index(DELAYS_MS.len())],
                },
            };
            FaultEvent { hop, kind }
        })
        .collect();

    let n_flows = 1 + rng.index(6);
    let mut flows: Vec<FlowSpec> = (0..n_flows)
        .map(|_| FlowSpec {
            at_ms: rng.index(2000) as u64,
            bytes: FLOW_BYTES[rng.index(FLOW_BYTES.len())],
            protocol: Protocol::EVALUATED[rng.index(Protocol::EVALUATED.len())],
        })
        .collect();
    // Stable sort: ties keep draw order, so generation stays deterministic.
    flows.sort_by_key(|f| f.at_ms);

    CaseSpec {
        seed,
        id,
        engine_seed: rng.next_u64(),
        hops,
        faults,
        flows,
        horizon: SimDuration::from_secs(500),
        break_conservation: false,
    }
}

fn apply_fault(fs: FaultSpec, kind: &FaultKind) -> FaultSpec {
    let at = |ms: u64| SimTime::ZERO + SimDuration::from_millis(ms);
    match *kind {
        FaultKind::Down { start_ms, dur_ms } => fs.down_window(at(start_ms), at(start_ms + dur_ms)),
        FaultKind::Blackhole { start_ms, dur_ms } => {
            fs.blackhole_window(at(start_ms), at(start_ms + dur_ms))
        }
        FaultKind::Reorder { prob, max_extra_us } => {
            fs.with_reorder(prob, SimDuration::from_micros(max_extra_us))
        }
        FaultKind::Duplicate { prob } => fs.with_duplication(prob),
        FaultKind::Corrupt { prob } => fs.with_corruption(prob),
        FaultKind::RateStep { at_ms, mbps } => fs.rate_step(at(at_ms), Rate::from_mbps(mbps)),
        FaultKind::DelayStep { at_ms, ms } => {
            fs.delay_step(at(at_ms), SimDuration::from_millis(ms))
        }
    }
}

/// A built chain topology.
struct Chain {
    sender: NodeId,
    receiver: NodeId,
    routers: Vec<NodeId>,
    fwd: Vec<LinkId>,
}

/// Build `sender → R1 → … → receiver` over `hops`, with invariant checking
/// enabled on both hosts and flight recorders when `record` is set.
fn build_chain(sim: &mut TransportSim, hops: &[HopSpec], record: bool) -> Chain {
    let make_host = || {
        let mut h = Host::new();
        h.check_invariants = true;
        if record {
            h.enable_recorder();
        }
        Box::new(h)
    };
    let sender = sim.add_node(make_host());
    let routers: Vec<NodeId> = (1..hops.len())
        .map(|_| sim.add_node(Box::<Router>::default()))
        .collect();
    let receiver = sim.add_node(make_host());
    let mut chain = vec![sender];
    chain.extend(routers.iter().copied());
    chain.push(receiver);

    let (mut fwd, mut rev) = (Vec::new(), Vec::new());
    for (i, h) in hops.iter().enumerate() {
        let rate = Rate::from_mbps(h.rate_mbps);
        let delay = SimDuration::from_millis(h.delay_ms);
        fwd.push(
            sim.add_link(
                LinkSpec::drop_tail(chain[i], chain[i + 1], rate, delay, h.buffer_bytes)
                    .with_loss(h.loss.clone()),
            ),
        );
        rev.push(sim.add_link(LinkSpec::drop_tail(
            chain[i + 1],
            chain[i],
            rate,
            delay,
            h.buffer_bytes.max(REVERSE_BUFFER_FLOOR),
        )));
    }
    sim.node_as_mut::<Host>(sender)
        .unwrap()
        .wire(sender, fwd[0]);
    sim.node_as_mut::<Host>(receiver)
        .unwrap()
        .wire(receiver, rev[hops.len() - 1]);
    for (j, &r) in routers.iter().enumerate() {
        let router = sim.node_as_mut::<Router>(r).unwrap();
        router.add_route(receiver, fwd[j + 1]);
        router.add_route(sender, rev[j]);
    }
    Chain {
        sender,
        receiver,
        routers,
        fwd,
    }
}

/// Store-and-forward FCT floor in nanoseconds: two round trips (handshake,
/// then last byte out and final ACK back) plus serialization at the most
/// optimistic bottleneck rate. Fault steps can *raise* a hop's rate or
/// *lower* its delay mid-run, so the floor uses each hop's best possible
/// values under the selected faults.
fn fct_floor_ns(hops: &[HopSpec], faults: &[&FaultEvent], bytes: u64) -> f64 {
    let mut d_fwd_ns = 0.0;
    let mut d_rev_ns = 0.0;
    let mut bottleneck_mbps = f64::INFINITY;
    for (i, h) in hops.iter().enumerate() {
        let mut min_delay_ms = h.delay_ms as f64;
        let mut max_mbps = h.rate_mbps as f64;
        for f in faults {
            if f.hop.min(hops.len() - 1) != i {
                continue;
            }
            match f.kind {
                FaultKind::DelayStep { ms, .. } => min_delay_ms = min_delay_ms.min(ms as f64),
                FaultKind::RateStep { mbps, .. } => max_mbps = max_mbps.max(mbps as f64),
                _ => {}
            }
        }
        d_fwd_ns += min_delay_ms * 1e6;
        // Reverse links never have faults installed, so they keep base delay.
        d_rev_ns += h.delay_ms as f64 * 1e6;
        bottleneck_mbps = bottleneck_mbps.min(max_mbps);
    }
    let ser_ns = flow_wire_bytes(bytes) as f64 * 8_000.0 / bottleneck_mbps;
    2.0 * (d_fwd_ns + d_rev_ns) + ser_ns
}

/// The bounded half of the rto-sanity oracle. Every RTO either follows
/// cumulative progress, of which a flow makes at most one piece per
/// segment, or counts towards the [`MAX_RTO_RETRIES`] a sender allows itself
/// without any — so a long flow behind a deep queue may time out many times
/// and be healthy (one segment further along each time), and a flow that
/// exceeds its length's allowance is not.
fn rto_sanity(rec: &FlowRecord) -> Option<Violation> {
    let bound = (MAX_RTO_RETRIES as u64 + 1) * segment_count(rec.bytes) as u64;
    (rec.counters.rto_events > bound).then(|| Violation {
        kind: "rto-sanity",
        detail: format!(
            "flow {}: {} RTO events, more than {bound} for its {} bytes",
            rec.flow, rec.counters.rto_events, rec.bytes
        ),
    })
}

/// Run a single pristine flow of `protocol` over `hops` and return its FCT
/// in nanoseconds (None if it did not complete — itself a bug on a clean
/// path, reported by the caller).
fn pristine_fct_ns(
    engine_seed: u64,
    hops: &[HopSpec],
    protocol: Protocol,
    bytes: u64,
) -> Option<u64> {
    let mut sim = TransportSim::new(engine_seed);
    let net = build_chain(&mut sim, hops, false);
    let cache = path_cache();
    let strategy = protocol.make(&cache, (net.sender, net.receiver));
    sim.with_node_mut::<Host, _>(net.sender, |h, core| {
        h.start_flow(core, FlowId(1), net.receiver, bytes, strategy)
    });
    run_until_checked(&mut sim, SimTime::ZERO + SimDuration::from_secs(240));
    sim.run_to_completion(20_000_000);
    harness::meter_add(
        sim.now().saturating_since(SimTime::ZERO).as_nanos(),
        sim.events_processed(),
    );
    let host = sim.node_as::<Host>(net.sender).unwrap();
    host.completed()
        .iter()
        .find(|r| matches!(r.outcome, FlowOutcome::Completed))
        .map(|r| r.fct.as_nanos())
}

/// Execute `spec` restricted to `sel` and run the oracle battery.
pub fn run_case(spec: &CaseSpec, sel: &Selection, record_trace: bool) -> CaseReport {
    let mut report = CaseReport::default();
    let hops = &spec.hops[..sel.hops.clamp(1, spec.hops.len())];
    let kept_faults: Vec<&FaultEvent> = sel.faults.iter().map(|&i| &spec.faults[i]).collect();

    let mut sim = TransportSim::new(spec.engine_seed);
    let net = build_chain(&mut sim, hops, record_trace);

    // Install selected faults, remapped onto the surviving hops and merged
    // per forward link.
    for (i, &link) in net.fwd.iter().enumerate() {
        let mut fs = FaultSpec::none();
        for f in &kept_faults {
            if f.hop.min(hops.len() - 1) == i {
                fs = apply_fault(fs, &f.kind);
            }
        }
        if !fs.is_noop() {
            sim.set_link_faults(link, fs);
        }
    }

    let wire = Rc::new(RefCell::new(Vec::new()));
    if record_trace {
        let w2 = wire.clone();
        sim.set_tracer(Box::new(move |at, ev| {
            w2.borrow_mut().push((at.as_nanos(), *ev));
        }));
    }

    // Start the selected flows in schedule order. Flow ids are
    // 1 + original index, so a shrunk case keeps its flow identities.
    let cache = path_cache();
    let mut last = SimTime::ZERO;
    for &fi in &sel.flows {
        let f = &spec.flows[fi];
        let at = SimTime::ZERO + SimDuration::from_millis(f.at_ms);
        run_until_checked(&mut sim, at);
        let strategy = f.protocol.make(&cache, (net.sender, net.receiver));
        sim.with_node_mut::<Host, _>(net.sender, |h, core| {
            h.start_flow(core, FlowId(fi as u64 + 1), net.receiver, f.bytes, strategy)
        });
        last = at;
    }
    run_until_checked(&mut sim, last + spec.horizon);

    // Oracle: all flows terminal by the horizon.
    let unfinished = sim.node_as::<Host>(net.sender).unwrap().active_senders();
    if unfinished > 0 {
        report.violations.push(Violation {
            kind: "terminal",
            detail: format!(
                "{unfinished} flow(s) still not terminal {}s after the last start",
                spec.horizon.as_secs_f64()
            ),
        });
    }
    sim.run_to_completion(50_000_000);
    harness::meter_add(
        sim.now().saturating_since(SimTime::ZERO).as_nanos(),
        sim.events_processed(),
    );

    // Oracle: clean drain (only meaningful once everything is terminal —
    // an unfinished flow legitimately still owns timers).
    if unfinished == 0 {
        let hygiene = sim.hygiene_report();
        if !hygiene.is_clean() {
            report.violations.push(Violation {
                kind: "drain",
                detail: format!("simulation did not drain: {hygiene}"),
            });
        }
    }

    // Oracle: per-link conservation, offer side and wire side.
    for l in 0..sim.link_count() {
        let link = LinkId(l as u32);
        let s = sim.link_stats(link);
        let q = sim.queue_stats(link);
        report.queue_drops += q.dropped;
        report.link_lost += s.lost_total();
        if s.offered != s.down_dropped + q.dropped + s.tx_packets {
            report.violations.push(Violation {
                kind: "conservation",
                detail: format!(
                    "link {l}: offered {} != down-dropped {} + queue-dropped {} + tx {}",
                    s.offered, s.down_dropped, q.dropped, s.tx_packets
                ),
            });
        }
        if q.enqueued != q.dequeued {
            report.violations.push(Violation {
                kind: "conservation",
                detail: format!(
                    "link {l}: queue enqueued {} != dequeued {} after drain",
                    q.enqueued, q.dequeued
                ),
            });
        }
        if s.tx_packets + s.duplicated
            != s.wire_lost + s.blackholed + s.corrupt_dropped + s.delivered
        {
            report.violations.push(Violation {
                kind: "conservation",
                detail: format!(
                    "link {l}: tx {} + dup {} != wire-lost {} + blackholed {} + corrupt {} + delivered {}",
                    s.tx_packets, s.duplicated, s.wire_lost, s.blackholed, s.corrupt_dropped,
                    s.delivered
                ),
            });
        }
    }

    // Oracle: live transport invariants (ghost bytes, ACK monotonicity)
    // plus routing/stray hygiene.
    for (name, node) in [("sender", net.sender), ("receiver", net.receiver)] {
        let host = sim.node_as::<Host>(node).unwrap();
        for b in host.invariant_breaches() {
            report.violations.push(Violation {
                kind: "transport",
                detail: format!("{name}: {b}"),
            });
        }
        if host.stray_packets > 0 {
            report.violations.push(Violation {
                kind: "transport",
                detail: format!("{name}: {} stray packet(s)", host.stray_packets),
            });
        }
    }
    for &r in &net.routers {
        let router = sim.node_as::<Router>(r).unwrap();
        if router.unroutable() > 0 {
            report.violations.push(Violation {
                kind: "transport",
                detail: format!(
                    "router {}: {} unroutable packet(s)",
                    r.0,
                    router.unroutable()
                ),
            });
        }
    }

    // Pristine cases: no kept faults, no random loss, buffers comfortably
    // above the first-RTT blast. These admit much sharper oracles.
    let pristine = kept_faults.is_empty()
        && hops
            .iter()
            .all(|h| matches!(h.loss, LossModel::None) && h.buffer_bytes >= PRISTINE_BUFFER_BYTES);

    // Per-flow oracles over the sender's completion records.
    report.records = sim
        .node_as::<Host>(net.sender)
        .unwrap()
        .completed()
        .to_vec();
    let receiver_host = sim.node_as::<Host>(net.receiver).unwrap();
    for rec in &report.records {
        let flow = rec.flow;
        report.violations.extend(rto_sanity(rec));
        match rec.outcome {
            FlowOutcome::Completed => {
                report.completed += 1;
                match receiver_host.receiver(flow) {
                    Some(rc) => {
                        if rc.complete_at.is_none() || rc.delivered_bytes != rec.bytes {
                            report.violations.push(Violation {
                                kind: "delivery",
                                detail: format!(
                                    "flow {flow}: sender reports completion but receiver has \
                                     {}/{} bytes (complete: {})",
                                    rc.delivered_bytes,
                                    rec.bytes,
                                    rc.complete_at.is_some()
                                ),
                            });
                        }
                    }
                    None => report.violations.push(Violation {
                        kind: "delivery",
                        detail: format!("flow {flow}: completed with no receiver-side state"),
                    }),
                }
                let floor = fct_floor_ns(hops, &kept_faults, rec.bytes);
                if (rec.fct.as_nanos() as f64) < floor * 0.99 {
                    report.violations.push(Violation {
                        kind: "fct-bound",
                        detail: format!(
                            "flow {flow}: FCT {:.3}ms beats the store-and-forward floor {:.3}ms",
                            rec.fct.as_nanos() as f64 / 1e6,
                            floor / 1e6
                        ),
                    });
                }
                if pristine && sel.flows.len() == 1 && rec.counters.rto_events > 0 {
                    report.violations.push(Violation {
                        kind: "rto-sanity",
                        detail: format!(
                            "flow {flow}: {} RTO event(s) on a pristine single-flow case",
                            rec.counters.rto_events
                        ),
                    });
                }
            }
            FlowOutcome::Aborted(_) => {
                report.aborted += 1;
                if pristine {
                    report.violations.push(Violation {
                        kind: "delivery",
                        detail: format!("flow {flow}: aborted on a pristine case"),
                    });
                }
            }
        }
    }

    // Differential oracle: on pristine, RTT-dominated short-flow cases,
    // Halfback must not lose to TCP beyond a small tolerance — the paper's
    // claim, demoted to an invariant. Serialization-dominated or large
    // flows are excluded: there the proactive tail legitimately costs
    // extra serialization.
    if pristine && sel.flows.len() == 1 {
        let bytes = spec.flows[sel.flows[0]].bytes.min(100_000);
        let rtt_ns = 2.0 * hops.iter().map(|h| h.delay_ms as f64 * 1e6).sum::<f64>();
        let bottleneck = hops.iter().map(|h| h.rate_mbps).min().unwrap() as f64;
        let ser_ns = flow_wire_bytes(bytes) as f64 * 8_000.0 / bottleneck;
        if ser_ns <= rtt_ns {
            let hb = pristine_fct_ns(spec.engine_seed, hops, Protocol::Halfback, bytes);
            let tcp = pristine_fct_ns(spec.engine_seed, hops, Protocol::Tcp, bytes);
            match (hb, tcp) {
                (Some(hb), Some(tcp)) => {
                    if hb as f64 > tcp as f64 * 1.10 + 10e6 {
                        report.violations.push(Violation {
                            kind: "differential",
                            detail: format!(
                                "Halfback FCT {:.3}ms > TCP {:.3}ms on a clean \
                                 RTT-dominated path ({bytes} bytes)",
                                hb as f64 / 1e6,
                                tcp as f64 / 1e6
                            ),
                        });
                    }
                }
                _ => report.violations.push(Violation {
                    kind: "differential",
                    detail: format!(
                        "a clean-path reference flow failed to complete \
                         (halfback: {}, tcp: {})",
                        hb.is_some(),
                        tcp.is_some()
                    ),
                }),
            }
        }
    }

    // Test hook: a deliberately broken "conservation" verdict that needs at
    // least one flow and one fault to reproduce, so the shrinker has a
    // known fixed point to converge to.
    if spec.break_conservation && !sel.flows.is_empty() && !sel.faults.is_empty() {
        report.violations.push(Violation {
            kind: "conservation",
            detail: "deliberate conservation break (test hook)".to_string(),
        });
    }

    if record_trace {
        let recorded = |node: NodeId| -> Vec<FlowEventRecord> {
            sim.node_as::<Host>(node)
                .and_then(|h| h.recorder())
                .map(|r| r.events().copied().collect())
                .unwrap_or_default()
        };
        report.streams = Streams {
            wire: wire.take(),
            snd: recorded(net.sender),
            rcv: recorded(net.receiver),
        };
    }
    report
}

/// Greedily shrink `sel` while a violation of `kind` still reproduces:
/// flows (highest index first), then fault events, then hops, repeated to
/// a fixed point. Every trial is a full deterministic re-run, so the
/// result is a pure function of `(spec, sel, kind)`.
pub fn shrink_case(spec: &CaseSpec, sel: Selection, kind: &'static str) -> Selection {
    let reproduces = |s: &Selection| {
        run_case(spec, s, false)
            .violations
            .iter()
            .any(|v| v.kind == kind)
    };
    let mut sel = sel;
    loop {
        let mut changed = false;
        let mut i = sel.flows.len();
        while i > 0 {
            i -= 1;
            let mut cand = sel.clone();
            cand.flows.remove(i);
            if reproduces(&cand) {
                sel = cand;
                changed = true;
            }
        }
        let mut i = sel.faults.len();
        while i > 0 {
            i -= 1;
            let mut cand = sel.clone();
            cand.faults.remove(i);
            if reproduces(&cand) {
                sel = cand;
                changed = true;
            }
        }
        while sel.hops > 1 {
            let cand = Selection {
                hops: sel.hops - 1,
                ..sel.clone()
            };
            if !reproduces(&cand) {
                break;
            }
            sel = cand;
            changed = true;
        }
        if !changed {
            return sel;
        }
    }
}

fn fmt_indices(xs: &[usize]) -> String {
    if xs.is_empty() {
        return "none".to_string();
    }
    xs.iter()
        .map(|i| i.to_string())
        .collect::<Vec<_>>()
        .join(",")
}

/// The one-line reproduction command for a (possibly shrunk) case. Keep
/// flags are omitted when the selection is the full spec.
pub fn repro_command(spec: &CaseSpec, sel: &Selection) -> String {
    let mut cmd = format!("repro simcheck --seed {} --case {}", spec.seed, spec.id);
    if sel.flows.len() != spec.flows.len() {
        let _ = write!(cmd, " --keep-flows {}", fmt_indices(&sel.flows));
    }
    if sel.faults.len() != spec.faults.len() {
        let _ = write!(cmd, " --keep-faults {}", fmt_indices(&sel.faults));
    }
    if sel.hops != spec.hops.len() {
        let _ = write!(cmd, " --keep-hops {}", sel.hops);
    }
    cmd
}

/// Outcome of one battery case, in a render-ready form.
#[derive(Debug)]
pub struct CaseSummary {
    /// Case index.
    pub id: u64,
    /// First violation's oracle kind (None = case passed).
    pub kind: Option<&'static str>,
    /// First violation's detail (empty when passed).
    pub detail: String,
    /// Reproduction command for the shrunk case.
    pub command: Option<String>,
    /// Flight-recorder trace of the shrunk failing case.
    pub trace: Option<String>,
    /// Flows completed / aborted on the full case.
    pub completed: usize,
    /// See `completed`.
    pub aborted: usize,
}

impl CaseSummary {
    /// Did every oracle pass?
    pub fn ok(&self) -> bool {
        self.kind.is_none()
    }
}

/// A full battery run.
#[derive(Debug)]
pub struct Battery {
    /// Battery seed.
    pub seed: u64,
    /// Per-case outcomes, in case order.
    pub cases: Vec<CaseSummary>,
}

impl Battery {
    /// Cases that failed an oracle (including watchdog trips and panics).
    pub fn failures(&self) -> usize {
        self.cases.iter().filter(|c| !c.ok()).count()
    }

    /// Watchdog trips alone (livelocked cases killed by the caps).
    pub fn watchdog_trips(&self) -> usize {
        self.cases
            .iter()
            .filter(|c| c.kind == Some("watchdog"))
            .count()
    }

    /// Deterministic text summary. The final `invariant violations:` /
    /// `watchdog trips:` lines mirror the chaos sweep's and are what
    /// `hbbench`'s `tiny_sims` workload checks.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let n = self.cases.len();
        let ok = self.cases.iter().filter(|c| c.ok()).count();
        let completed: usize = self.cases.iter().map(|c| c.completed).sum();
        let aborted: usize = self.cases.iter().map(|c| c.aborted).sum();
        let _ = writeln!(
            out,
            "== simcheck — seed {}, {} randomized cases",
            self.seed, n
        );
        let _ = writeln!(
            out,
            "   * {ok}/{n} cases ok; flows: {completed} completed, {aborted} gave up"
        );
        for c in self.cases.iter().filter(|c| !c.ok()) {
            let _ = writeln!(
                out,
                "case {}: FAILED [{}] {}",
                c.id,
                c.kind.unwrap_or("unknown"),
                c.detail
            );
            if let Some(cmd) = &c.command {
                let _ = writeln!(out, "   repro: {cmd}");
            }
        }
        let trips = self.watchdog_trips();
        let _ = writeln!(out, "invariant violations: {}", self.failures() - trips);
        let _ = writeln!(out, "watchdog trips: {trips}");
        out
    }
}

fn battery_jobs(
    seed: u64,
    n_cases: u64,
    break_conservation: bool,
) -> Vec<Job<'static, CaseSummary>> {
    (0..n_cases)
        .map(|id| {
            Job::new(format!("case{id:04}"), move || {
                let mut spec = generate_case(seed, id);
                spec.break_conservation = break_conservation;
                let sel = Selection::full(&spec);
                let report = run_case(&spec, &sel, false);
                match report.violations.first() {
                    None => CaseSummary {
                        id,
                        kind: None,
                        detail: String::new(),
                        command: None,
                        trace: None,
                        completed: report.completed,
                        aborted: report.aborted,
                    },
                    Some(v0) => {
                        let kind = v0.kind;
                        let first_detail = v0.detail.clone();
                        let shrunk = shrink_case(&spec, sel, kind);
                        let traced = run_case(&spec, &shrunk, true);
                        let detail = traced
                            .violations
                            .iter()
                            .find(|v| v.kind == kind)
                            .map(|v| v.detail.clone())
                            .unwrap_or(first_detail);
                        CaseSummary {
                            id,
                            kind: Some(kind),
                            detail,
                            command: Some(repro_command(&spec, &shrunk)),
                            trace: Some(traced.streams.merged_jsonl().0),
                            completed: report.completed,
                            aborted: report.aborted,
                        }
                    }
                }
            })
            .with_caps(CASE_VIRTUAL_CAP_NS, CASE_EVENT_CAP)
        })
        .collect()
}

fn collect_battery(seed: u64, results: Vec<Result<CaseSummary, harness::JobPanic>>) -> Battery {
    let cases = results
        .into_iter()
        .enumerate()
        .map(|(id, r)| match r {
            Ok(c) => c,
            Err(p) => {
                let id = id as u64;
                let v = Violation::from_panic(p);
                CaseSummary {
                    id,
                    kind: Some(v.kind),
                    detail: v.detail,
                    command: Some(format!("repro simcheck --seed {seed} --case {id}")),
                    trace: None,
                    completed: 0,
                    aborted: 0,
                }
            }
        })
        .collect();
    Battery { seed, cases }
}

/// Run `n_cases` cases on `ctx`'s worker pool. The returned battery (and
/// its rendered text) is byte-identical for any worker count.
pub fn run_battery(ctx: &RunCtx, seed: u64, n_cases: u64) -> Battery {
    collect_battery(
        seed,
        harness::run_jobs(ctx, battery_jobs(seed, n_cases, false)),
    )
}

/// Test hook: run a battery whose every case carries the deliberate
/// conservation break, end to end through shrinking and reporting.
pub fn run_breaking_battery(ctx: &RunCtx, seed: u64, n_cases: u64) -> Battery {
    collect_battery(
        seed,
        harness::run_jobs(ctx, battery_jobs(seed, n_cases, true)),
    )
}

/// Outcome of a single-case run (`repro simcheck --case N`).
#[derive(Debug)]
pub struct SingleOutcome {
    /// The verdict line (`case N: ok …` / `case N: FAILED [kind] …`).
    pub line: String,
    /// Merged flight-recorder trace of the run.
    pub trace: String,
    /// True when any oracle fired.
    pub failed: bool,
}

/// Run one case under a selection (the `--keep-*` flags of an emitted
/// repro command) with the flight recorder on, and render the verdict.
/// Re-running a shrunk command reproduces the battery's verdict exactly:
/// both are the same pure `(spec, selection)` run.
pub fn run_single(spec: &CaseSpec, sel: &Selection) -> SingleOutcome {
    let report = run_case(spec, sel, true);
    let trace = report.streams.merged_jsonl().0;
    match report.violations.first() {
        None => SingleOutcome {
            line: format!(
                "case {}: ok ({} completed, {} gave up)",
                spec.id, report.completed, report.aborted
            ),
            trace,
            failed: false,
        },
        Some(v) => SingleOutcome {
            line: format!("case {}: FAILED [{}] {}", spec.id, v.kind, v.detail),
            trace,
            failed: true,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Find a case id whose generated spec has at least one fault and two
    /// flows and two hops — a meaty target for the shrinker test.
    fn meaty_case(seed: u64) -> CaseSpec {
        (0..500)
            .map(|id| generate_case(seed, id))
            .find(|s| s.faults.len() >= 2 && s.flows.len() >= 3 && s.hops.len() >= 2)
            .expect("500 cases must contain a meaty one")
    }

    #[test]
    fn generation_is_deterministic_and_varied() {
        let a = generate_case(7, 3);
        let b = generate_case(7, 3);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        // Different ids diverge.
        let c = generate_case(7, 4);
        assert_ne!(format!("{a:?}"), format!("{c:?}"));
        // The generator covers multi-hop, faulted, and sub-MTU shapes.
        let specs: Vec<CaseSpec> = (0..64).map(|id| generate_case(7, id)).collect();
        assert!(specs.iter().any(|s| s.hops.len() > 1));
        assert!(specs.iter().any(|s| !s.faults.is_empty()));
        assert!(specs
            .iter()
            .any(|s| s.hops.iter().any(|h| h.buffer_bytes < 1500)));
        assert!(specs.iter().any(|s| s.flows.len() > 1));
    }

    #[test]
    fn oracles_pass_on_a_small_sample() {
        for id in 0..6 {
            let spec = generate_case(42, id);
            let sel = Selection::full(&spec);
            let report = run_case(&spec, &sel, false);
            assert!(
                report.violations.is_empty(),
                "case {id} violated: {:?}",
                report.violations
            );
            assert!(report.completed + report.aborted >= 1);
        }
    }

    #[test]
    fn rto_bound_scales_with_the_flow() {
        // About 680 segments behind 1,846 queue drops: 69 RTOs, every one
        // at backoff level 0 and each retransmitting a later segment.
        let spec = generate_case(107, 313);
        let report = run_case(&spec, &Selection::full(&spec), false);
        assert!(report.violations.is_empty(), "{:?}", report.violations);

        let record = |bytes, rto_events| FlowRecord {
            flow: FlowId(9),
            protocol: "TCP",
            bytes,
            start: SimTime::ZERO,
            established_at: SimTime::ZERO,
            done_at: SimTime::ZERO,
            fct: SimDuration::ZERO,
            counters: transport::Counters {
                rto_events,
                ..Default::default()
            },
            min_rtt: None,
            outcome: FlowOutcome::Completed,
        };
        let per_segment = MAX_RTO_RETRIES as u64 + 1;
        assert!(rto_sanity(&record(1_000_000, 69)).is_none());
        assert!(rto_sanity(&record(10 * transport::MSS as u64, 10 * per_segment)).is_none());
        let over = rto_sanity(&record(10 * transport::MSS as u64, 10 * per_segment + 1))
            .expect("one RTO more than ten segments allow");
        assert_eq!(over.kind, "rto-sanity");
        // The flat bound this replaces let a two-segment flow time out 64
        // times.
        assert!(rto_sanity(&record(2 * transport::MSS as u64, 64)).is_some());
    }

    #[test]
    fn run_case_is_deterministic() {
        let spec = generate_case(11, 2);
        let sel = Selection::full(&spec);
        let a = run_case(&spec, &sel, true);
        let b = run_case(&spec, &sel, true);
        assert_eq!(a.streams.merged_jsonl(), b.streams.merged_jsonl());
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.violations.len(), b.violations.len());
    }

    /// Satellite: the shrinker must reduce a known violation to a minimal
    /// deterministic selection. The deliberate conservation break needs one
    /// flow and one fault, so the fixed point is exactly (1 flow, 1 fault,
    /// 1 hop).
    #[test]
    fn shrinker_minimizes_a_seeded_violation() {
        let mut spec = meaty_case(1234);
        spec.break_conservation = true;
        let sel = Selection::full(&spec);
        let report = run_case(&spec, &sel, false);
        let v = report
            .violations
            .iter()
            .find(|v| v.kind == "conservation")
            .expect("the break hook must fire on the full case");
        assert!(v.detail.contains("deliberate"));

        let shrunk = shrink_case(&spec, sel.clone(), "conservation");
        assert!(shrunk.flows.len() <= 1, "flows not minimized: {shrunk:?}");
        assert!(shrunk.faults.len() <= 1, "faults not minimized: {shrunk:?}");
        assert!(shrunk.hops <= 2, "hops not minimized: {shrunk:?}");
        // Shrinking is deterministic: a second pass lands on the same point.
        assert_eq!(shrunk, shrink_case(&spec, sel, "conservation"));
        // The shrunk case still reproduces the verdict, and its emitted
        // command names the kept pieces.
        let re = run_case(&spec, &shrunk, false);
        assert!(re.violations.iter().any(|v| v.kind == "conservation"));
        let cmd = repro_command(&spec, &shrunk);
        assert!(cmd.contains("--keep-flows"), "unexpected command: {cmd}");
        assert!(cmd.contains("--keep-faults"), "unexpected command: {cmd}");
    }

    /// Re-running the shrunk selection (what the printed `--keep-*` flags
    /// encode) reproduces the same oracle verdict via `run_single`.
    #[test]
    fn shrunk_command_reproduces_the_verdict() {
        let mut spec = meaty_case(99);
        spec.break_conservation = true;
        let shrunk = shrink_case(&spec, Selection::full(&spec), "conservation");
        let out = run_single(&spec, &shrunk);
        assert!(out.failed);
        assert!(out.line.contains("FAILED [conservation]"), "{}", out.line);
        assert!(!out.trace.is_empty());
        let again = run_single(&spec, &shrunk);
        assert_eq!(out.line, again.line);
        assert_eq!(out.trace, again.trace);
    }

    #[test]
    fn repro_command_round_trips() {
        let spec = generate_case(5, 0);
        let full = Selection::full(&spec);
        assert_eq!(
            repro_command(&spec, &full),
            "repro simcheck --seed 5 --case 0"
        );
        let sel = Selection {
            flows: vec![],
            faults: full.faults.clone(),
            hops: 1,
        };
        let cmd = repro_command(&spec, &sel);
        assert!(cmd.contains("--keep-flows none"), "{cmd}");
        if spec.hops.len() > 1 {
            assert!(cmd.contains("--keep-hops 1"), "{cmd}");
        }
    }

    #[test]
    fn fct_floor_uses_best_case_fault_steps() {
        let hops = vec![HopSpec {
            rate_mbps: 1,
            delay_ms: 50,
            buffer_bytes: 200_000,
            loss: LossModel::None,
        }];
        let base = fct_floor_ns(&hops, &[], 10_000);
        // A rate step up to 50 Mbps makes the best case much faster…
        let step = FaultEvent {
            hop: 0,
            kind: FaultKind::RateStep {
                at_ms: 10,
                mbps: 50,
            },
        };
        let with_step = fct_floor_ns(&hops, &[&step], 10_000);
        assert!(with_step < base);
        // …and a delay step down shrinks the floor further.
        let dstep = FaultEvent {
            hop: 0,
            kind: FaultKind::DelayStep { at_ms: 10, ms: 1 },
        };
        let both = fct_floor_ns(&hops, &[&step, &dstep], 10_000);
        assert!(both < with_step);
    }
}
