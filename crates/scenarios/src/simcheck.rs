//! The one runner every simulation of a figure goes through, and `repro
//! simcheck`, a deterministic invariant fuzzer with case shrinking.
//!
//! A [`CaseSpec`] is a [`Topology`] — a chain, a two-host path, the Emulab
//! dumbbell or a parking lot — plus fault events on its bottleneck links
//! and flows on its endpoint pairs. [`run_case`] builds it, starts the
//! flows, advances under the job watchdog and judges the run. On every
//! shape:
//!
//! * **conservation** — per-link packet books balance: everything offered is
//!   dropped (down-window, queue), serialized or still queued; everything
//!   serialized (plus duplicates) is lost on the wire, blackholed, dropped
//!   as corrupt, delivered or still propagating; and the links hold in
//!   flight exactly the packets the engine's arena holds.
//! * **transport** — no receiver accounts ghost bytes and no cumulative ACK
//!   moves backwards or past the flow end (both checked live by every
//!   [`Host`]), no packet goes stray, no router meets an unroutable one.
//! * **terminal** — every flow is completed or aborted by the deadline. A
//!   flow still running is *censored*, not a violation, only when its own
//!   fct-bound floor does not fit between its start and the deadline.
//! * **drain** — once all flows are terminal, the simulation drains clean:
//!   no live timers, busy links, or queued packets.
//! * **delivery** — a flow the sender reports complete was delivered in
//!   full by the receiver.
//! * **fct-bound** — no completion time beats the store-and-forward floor:
//!   two times the propagation along the flow's route there and back, plus
//!   its wire bytes at the route's slowest link, at the best rates and
//!   delays the case's fault steps allow.
//! * **rto-sanity** — a flow's RTO count is bounded by its length (a
//!   sender gives up after [`MAX_RTO_RETRIES`] timeouts without progress).
//!
//! On chains only, a pristine (loss-free, fault-free, well-buffered) single
//! flow sees no RTO, no flow aborts on a pristine chain, and the
//! **differential** holds: on RTT-dominated short flows Halfback does not
//! lose to TCP beyond a small tolerance (the paper's headline claim as an
//! invariant; its two reference runs use the same [`Rig`]).
//!
//! `repro chaos` and `repro trace` describe their chains as hand-written
//! cases, and every figure its dumbbell, path or parking lot: [`run_figure`]
//! fails a figure's job on the first violation with `oracle <kind>:
//! <detail>`. Fig. 16 starts flows from inside the run, so it drives the
//! same [`Rig`] directly.
//!
//! The battery draws random 1–3 hop chains: rates, delays, buffers
//! (sometimes below one MTU), loss models, fault events and flows of every
//! evaluated scheme. A failing case is *shrunk* — flows, then fault events,
//! then hops are greedily dropped while the violation reproduces — and a
//! one-line `repro simcheck --seed … --case …` command is emitted with a
//! merged flight-recorder trace. Everything is a pure function of `(seed,
//! case id)`, so a battery renders byte-identically for any `--jobs N`.

use crate::harness::{self, Job, JobPanic, RunCtx};
use crate::protocols::Protocol;
use crate::runner::run_until_checked;
use crate::trace::Streams;
use baselines::{path_cache, PathCache};
use netsim::engine::TraceEvent;
use netsim::link::{LinkSpec, LinkStats};
use netsim::loss::LossModel;
use netsim::rng::SimRng;
use netsim::router::Router;
use netsim::topology::{
    build_dumbbell, build_parking_lot, build_path, DumbbellSpec, ParkingLotSpec, PathSpec,
};
use netsim::{FaultSpec, FlowId, LinkId, Node, NodeId, Rate, SimDuration, SimTime};
use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;
use transport::trace::{DeliveryTimelines, FlowEventRecord};
use transport::wire::{flow_wire_bytes, segment_count};
use transport::{FlowOutcome, FlowRecord, Header, Host, TransportSim, MAX_RTO_RETRIES};

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

/// One hop of a chain: a forward data link and a clean reverse ACK link.
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

/// The network a case runs on. Each shape is built by its `netsim`
/// builder in that builder's order, so a figure's node and link ids are
/// the ones it always had.
#[derive(Debug, Clone)]
pub enum Topology {
    /// `sender → R1 → … → receiver` over these hops, sender side first:
    /// one endpoint pair.
    Chain(Vec<HopSpec>),
    /// A two-host path ([`build_path`]): one endpoint pair.
    Path(PathSpec),
    /// The Emulab dumbbell ([`build_dumbbell`]): pair `i` is left host `i`
    /// to right host `i`.
    Dumbbell(DumbbellSpec),
    /// A parking lot ([`build_parking_lot`]): the through pairs first, then
    /// each hop's cross-traffic pairs in hop order.
    ParkingLot(ParkingLotSpec),
}

impl Topology {
    /// Hops the shrinker may cut: a chain's length, and 1 for every other
    /// shape (those shrink flows only).
    pub fn hop_count(&self) -> usize {
        match self {
            Topology::Chain(hops) => hops.len(),
            _ => 1,
        }
    }
}

/// A fault-injection event targeting one forward bottleneck link: a
/// chain's hop, a path's forward link, the dumbbell's bottleneck, or a
/// parking-lot hop. When the shrinker removes hops, events on removed hops
/// remap onto the last remaining one, so shrinking hops never silently
/// discards the fault under test.
#[derive(Debug, Clone)]
pub struct FaultEvent {
    /// Forward bottleneck index the fault applies to.
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
    /// Start time, nanoseconds after zero.
    pub at_ns: u64,
    /// Payload bytes.
    pub bytes: u64,
    /// Transmission scheme.
    pub protocol: Protocol,
    /// The endpoint pair it runs on: an index into the topology's pairs.
    pub pair: usize,
}

/// A fully specified case: for the battery, a pure function of `(seed,
/// id)`.
#[derive(Debug, Clone)]
pub struct CaseSpec {
    /// Battery seed.
    pub seed: u64,
    /// Case index within the battery.
    pub id: u64,
    /// Engine seed for the simulation itself.
    pub engine_seed: u64,
    /// The network.
    pub topology: Topology,
    /// Fault events (possibly none).
    pub faults: Vec<FaultEvent>,
    /// Workload, sorted by start time.
    pub flows: Vec<FlowSpec>,
    /// Time after the last flow start by which every flow must be terminal;
    /// the run stops advancing the clock there before it drains.
    pub horizon: SimDuration,
    /// Minimum-RTO override on every host (sensitivity studies).
    pub min_rto: Option<SimDuration>,
    /// Record receiver delivery timelines with this bin width (Fig. 15).
    pub delivery_bin_ns: Option<u64>,
    /// Keep a per-packet arrival log at every receiver (Fig. 3).
    pub log_arrivals: bool,
    /// Test hook: deliberately report a conservation violation whenever at
    /// least one flow and one fault are selected, so the shrinker itself
    /// can be exercised end to end (`tests` only; never set by the CLI
    /// battery).
    pub break_conservation: bool,
}

impl CaseSpec {
    /// A hand-written case: `flows` on `topology`, no faults, no host
    /// options. It belongs to no battery, so its `seed` is the engine seed
    /// and its `id` 0.
    pub fn new(
        engine_seed: u64,
        topology: Topology,
        flows: Vec<FlowSpec>,
        horizon: SimDuration,
    ) -> CaseSpec {
        CaseSpec {
            seed: engine_seed,
            id: 0,
            engine_seed,
            topology,
            faults: Vec::new(),
            flows,
            horizon,
            min_rto: None,
            delivery_bin_ns: None,
            log_arrivals: false,
            break_conservation: false,
        }
    }

    /// A hand-written case of one flow of `bytes` from t = 0 on the first
    /// endpoint pair.
    pub fn single(
        engine_seed: u64,
        topology: Topology,
        protocol: Protocol,
        bytes: u64,
        horizon: SimDuration,
    ) -> CaseSpec {
        let flow = FlowSpec {
            at_ns: 0,
            bytes,
            protocol,
            pair: 0,
        };
        CaseSpec::new(engine_seed, topology, vec![flow], horizon)
    }

    /// A hand-written one-hop case with `faults` on that hop: the shape of
    /// every `repro chaos` cell and `repro trace` path.
    pub fn one_hop(
        engine_seed: u64,
        hop: HopSpec,
        faults: &[FaultKind],
        flows: Vec<FlowSpec>,
        horizon: SimDuration,
    ) -> CaseSpec {
        CaseSpec {
            faults: faults
                .iter()
                .map(|&kind| FaultEvent { hop: 0, kind })
                .collect(),
            ..CaseSpec::new(engine_seed, Topology::Chain(vec![hop]), flows, horizon)
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
    /// Number of leading hops kept (≥ 1; chains only).
    pub hops: usize,
}

impl Selection {
    /// Everything in the spec.
    pub fn full(spec: &CaseSpec) -> Selection {
        Selection {
            flows: (0..spec.flows.len()).collect(),
            faults: (0..spec.faults.len()).collect(),
            hops: spec.topology.hop_count(),
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
    /// Flows still running at the deadline whose floor did not fit before
    /// it (see the terminal oracle).
    pub censored: usize,
    /// The senders' records of every terminal flow: pair by pair, each in
    /// completion order.
    pub records: Vec<FlowRecord>,
    /// Stats of the topology's forward bottleneck links, in
    /// [`FaultEvent::hop`] order.
    pub bottlenecks: Vec<LinkStats>,
    /// Queue drops summed over every link.
    pub queue_drops: u64,
    /// Non-queue losses ([`netsim::link::LinkStats::lost_total`]) summed
    /// over every link.
    pub link_lost: u64,
    /// The raw flight-recorder streams (empty unless recording was asked
    /// for).
    pub streams: Streams,
}

impl CaseReport {
    fn fail(&mut self, kind: &'static str, detail: String) {
        self.violations.push(Violation { kind, detail });
    }

    /// The records of flows that completed, in record order.
    pub fn completed_records(&self) -> Vec<FlowRecord> {
        self.records
            .iter()
            .filter(|r| r.outcome.is_completed())
            .cloned()
            .collect()
    }

    /// This report, or a panic with `oracle <kind>: <detail>` on its first
    /// violation — what fails a figure's job.
    pub fn judged(self) -> CaseReport {
        if let Some(v) = self.violations.first() {
            panic!("oracle {}: {}", v.kind, v.detail);
        }
        self
    }
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
            at_ns: rng.index(2000) as u64 * 1_000_000,
            bytes: FLOW_BYTES[rng.index(FLOW_BYTES.len())],
            protocol: Protocol::EVALUATED[rng.index(Protocol::EVALUATED.len())],
            pair: 0,
        })
        .collect();
    // Stable sort: ties keep draw order, so generation stays deterministic.
    flows.sort_by_key(|f| f.at_ns);

    let (engine_seed, horizon) = (rng.next_u64(), SimDuration::from_secs(500));
    CaseSpec {
        seed,
        id,
        faults,
        ..CaseSpec::new(engine_seed, Topology::Chain(hops), flows, horizon)
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

/// One link of a route, as the fct-bound floor sees it: its rate, its
/// one-way delay, and its index among the topology's bottlenecks when
/// fault events can target it. The way back counts only its delay.
#[derive(Debug, Clone, Copy)]
struct Leg {
    bps: f64,
    delay_ns: f64,
    slot: Option<usize>,
}

impl Leg {
    fn new(rate: Rate, delay: SimDuration, slot: Option<usize>) -> Leg {
        let (bps, delay_ns) = (rate.as_bps() as f64, delay.as_nanos() as f64);
        Leg {
            bps,
            delay_ns,
            slot,
        }
    }

    fn back(delay: SimDuration) -> Leg {
        let delay_ns = delay.as_nanos() as f64;
        Leg {
            bps: f64::INFINITY,
            delay_ns,
            slot: None,
        }
    }
}

/// A topology built into a simulator.
struct Net {
    /// `(sender, receiver)` of every endpoint pair.
    pairs: Vec<(NodeId, NodeId)>,
    /// The route of every pair, there and back.
    routes: Vec<Vec<Leg>>,
    routers: Vec<NodeId>,
    /// Forward bottleneck links, in [`FaultEvent::hop`] order.
    bottlenecks: Vec<LinkId>,
}

/// Point a host at its egress link.
fn wire_host(sim: &mut TransportSim, host: NodeId, egress: LinkId) {
    sim.node_as_mut::<Host>(host).unwrap().wire(host, egress);
}

/// Build `topology` (a chain cut to its first `hops` hops) with hosts from
/// `host`, and wire every host to its egress link.
fn build(
    sim: &mut TransportSim,
    topology: &Topology,
    hops: usize,
    mut host: impl FnMut() -> Box<dyn Node<Header>>,
) -> Net {
    match topology {
        Topology::Chain(all) => {
            let hops = &all[..hops.clamp(1, all.len())];
            let sender = sim.add_node(host());
            let routers: Vec<NodeId> = (1..hops.len())
                .map(|_| sim.add_node(Box::<Router>::default()))
                .collect();
            let receiver = sim.add_node(host());
            let mut chain = vec![sender];
            chain.extend(routers.iter().copied());
            chain.push(receiver);

            let (mut fwd, mut rev, mut route) = (Vec::new(), Vec::new(), Vec::new());
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
                route.extend([Leg::new(rate, delay, Some(i)), Leg::back(delay)]);
            }
            wire_host(sim, sender, fwd[0]);
            wire_host(sim, receiver, rev[hops.len() - 1]);
            for (j, &r) in routers.iter().enumerate() {
                let router = sim.node_as_mut::<Router>(r).unwrap();
                router.add_route(receiver, fwd[j + 1]);
                router.add_route(sender, rev[j]);
            }
            Net {
                pairs: vec![(sender, receiver)],
                routes: vec![route],
                routers,
                bottlenecks: fwd,
            }
        }
        Topology::Path(spec) => {
            let net = build_path(sim, spec, |_| host());
            wire_host(sim, net.sender, net.forward);
            wire_host(sim, net.receiver, net.reverse);
            // The path's own fault steps can only speed it up so far.
            let one_way = SimDuration::from_nanos(spec.rtt.as_nanos() / 2);
            let steps = &spec.faults;
            let delay = steps
                .delay_steps
                .iter()
                .map(|s| s.1)
                .fold(one_way, Ord::min);
            let rate = steps
                .rate_steps
                .iter()
                .map(|s| s.1)
                .fold(spec.rate, Ord::max);
            Net {
                pairs: vec![(net.sender, net.receiver)],
                routes: vec![vec![
                    Leg::new(rate, delay, Some(0)),
                    Leg::back(spec.rtt - one_way),
                ]],
                routers: Vec::new(),
                bottlenecks: vec![net.forward],
            }
        }
        Topology::Dumbbell(spec) => {
            let net = build_dumbbell(sim, spec, |_, _| host());
            let hosts = [&net.left_hosts, &net.right_hosts].into_iter().flatten();
            let egress = [&net.left_egress, &net.right_egress].into_iter().flatten();
            for (&h, &e) in hosts.zip(egress) {
                wire_host(sim, h, e);
            }
            let access = Leg::new(spec.access_rate, spec.access_delay, None);
            let bottleneck = Leg::new(spec.bottleneck_rate, spec.bottleneck_delay, Some(0));
            let back = Leg::back(spec.access_delay * 2 + spec.bottleneck_delay);
            let right = net.right_hosts.iter().copied();
            let pairs: Vec<_> = net.left_hosts.iter().copied().zip(right).collect();
            Net {
                routes: vec![vec![access, bottleneck, access, back]; pairs.len()],
                pairs,
                routers: vec![net.left_router, net.right_router],
                bottlenecks: vec![net.bottleneck_lr],
            }
        }
        Topology::ParkingLot(spec) => {
            let net = build_parking_lot(sim, spec, &mut host);
            let access = ParkingLotSpec::ACCESS_DELAY;
            // Hops `first..first + n`, between two access links.
            let route = |first: usize, n: usize| -> Vec<Leg> {
                let hop = |h| Leg::new(spec.hop_rate, spec.hop_delay, Some(h));
                let edge = Leg::new(spec.access_rate, access, None);
                let back = Leg::back(access * 2 + spec.hop_delay * n as u64);
                let hops = (first..first + n).map(hop);
                std::iter::once(edge)
                    .chain(hops)
                    .chain([edge, back])
                    .collect()
            };
            let through = (0..spec.n_through).map(|i| {
                let s = (net.through_senders[i], net.through_egress[i]);
                let r = (net.through_receivers[i], net.through_receiver_egress[i]);
                (s, r, route(0, spec.hops))
            });
            let cross = net
                .cross
                .iter()
                .enumerate()
                .flat_map(|(h, (ss, rs, ses, res))| {
                    (0..ss.len()).map(move |i| ((ss[i], ses[i]), (rs[i], res[i]), h))
                });
            let cross = cross.map(|(s, r, h)| (s, r, route(h, 1)));
            let (mut pairs, mut routes) = (Vec::new(), Vec::new());
            for ((s, se), (r, re), legs) in through.chain(cross) {
                wire_host(sim, s, se);
                wire_host(sim, r, re);
                pairs.push((s, r));
                routes.push(legs);
            }
            Net {
                pairs,
                routes,
                routers: net.routers,
                bottlenecks: net.hop_links,
            }
        }
    }
}

/// Store-and-forward FCT floor in nanoseconds: two times the propagation
/// along `route` there and back (handshake, then last byte out and final
/// ACK back) plus the flow's wire bytes at the route's slowest link. Fault
/// steps can *raise* a link's rate or *lower* its delay mid-run, so the
/// floor uses each bottleneck's best possible values under `faults`
/// (spread over `slots` bottlenecks).
fn fct_floor_ns(route: &[Leg], faults: &[FaultEvent], slots: usize, bytes: u64) -> f64 {
    let mut delay_ns = 0.0;
    let mut slowest_bps = f64::INFINITY;
    for leg in route {
        let (mut delay, mut bps) = (leg.delay_ns, leg.bps);
        for f in faults
            .iter()
            .filter(|f| Some(f.hop.min(slots - 1)) == leg.slot)
        {
            match f.kind {
                FaultKind::DelayStep { ms, .. } => delay = delay.min(ms as f64 * 1e6),
                FaultKind::RateStep { mbps, .. } => bps = bps.max(mbps as f64 * 1e6),
                _ => {}
            }
        }
        delay_ns += delay;
        slowest_bps = slowest_bps.min(bps);
    }
    2.0 * delay_ns + flow_wire_bytes(bytes) as f64 * 8e9 / slowest_bps
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

/// The wire tracer's events, shared with the tracer closure.
type WireLog = Rc<RefCell<Vec<(u64, TraceEvent)>>>;

/// One run of a case: its topology built into a simulator, and the flows
/// started on it so far. [`run_rig`] drives it from the case's schedule; a
/// figure that starts flows from inside the run drives it directly and
/// ends with [`Rig::finish`].
pub struct Rig {
    /// The simulator.
    pub sim: TransportSim,
    net: Net,
    /// The selected fault events.
    faults: Vec<FaultEvent>,
    /// A loss-free, fault-free chain buffered above the first-RTT blast:
    /// the pristine-only oracles apply.
    pristine: bool,
    cache: PathCache,
    /// Every flow started: id, pair, start time, bytes.
    started: Vec<(FlowId, usize, SimTime, u64)>,
    /// The wire tracer's events, when recording.
    wire: Option<WireLog>,
}

impl Rig {
    /// Build `spec`'s topology cut to `sel`, with `sel`'s faults installed,
    /// the case's host options on every host, and flight recorders plus a
    /// wire tracer when `record` is set. No flow is started.
    pub fn new(spec: &CaseSpec, sel: &Selection, record: bool) -> Rig {
        let faults: Vec<FaultEvent> = sel.faults.iter().map(|&i| spec.faults[i].clone()).collect();
        let mut sim = TransportSim::new(spec.engine_seed);
        let host = || -> Box<dyn Node<Header>> {
            let mut h = Host::new();
            h.min_rto = spec.min_rto;
            h.timelines = spec.delivery_bin_ns.map(DeliveryTimelines::new);
            h.log_arrivals = spec.log_arrivals;
            if record {
                h.enable_recorder();
            }
            Box::new(h)
        };
        let net = build(&mut sim, &spec.topology, sel.hops, host);

        // Install the selected faults, remapped onto the surviving
        // bottlenecks and merged per link (onto a path's own schedule).
        let slots = net.bottlenecks.len();
        for (i, &link) in net.bottlenecks.iter().enumerate() {
            let base = match &spec.topology {
                Topology::Path(p) => p.faults.clone(),
                _ => FaultSpec::none(),
            };
            let fs = faults
                .iter()
                .filter(|f| f.hop.min(slots - 1) == i)
                .fold(base, |fs, f| apply_fault(fs, &f.kind));
            if !fs.is_noop() {
                sim.set_link_faults(link, fs);
            }
        }

        let wire = record.then(|| {
            let wire = Rc::new(RefCell::new(Vec::new()));
            let w2 = wire.clone();
            sim.set_tracer(Box::new(move |at, ev| {
                w2.borrow_mut().push((at.as_nanos(), *ev));
            }));
            wire
        });

        let pristine = match &spec.topology {
            Topology::Chain(hops) => {
                faults.is_empty()
                    && hops[..sel.hops.clamp(1, hops.len())].iter().all(|h| {
                        matches!(h.loss, LossModel::None) && h.buffer_bytes >= PRISTINE_BUFFER_BYTES
                    })
            }
            _ => false,
        };
        Rig {
            sim,
            net,
            faults,
            pristine,
            cache: path_cache(),
            started: Vec::new(),
            wire,
        }
    }

    /// `(sender, receiver)` of every endpoint pair.
    pub fn pairs(&self) -> &[(NodeId, NodeId)] {
        &self.net.pairs
    }

    /// Start flow `flow` of `bytes` on endpoint pair `pair` now.
    pub fn start(&mut self, flow: FlowId, pair: usize, bytes: u64, protocol: Protocol) {
        let (src, dst) = self.net.pairs[pair];
        let strategy = protocol.make(&self.cache, (src, dst));
        self.sim.with_node_mut::<Host, _>(src, |h, core| {
            h.start_flow(core, flow, dst, bytes, strategy)
        });
        self.started.push((flow, pair, self.sim.now(), bytes));
    }

    /// Advance to `until` under the job's watchdog.
    pub fn run_until(&mut self, until: SimTime) {
        run_until_checked(&mut self.sim, until);
    }

    /// End the run at the current instant: credit the job meter with it,
    /// drain the simulation unless a censored flow still runs, and judge
    /// what is left with every oracle that holds on any shape.
    pub fn finish(&mut self) -> CaseReport {
        let mut report = CaseReport::default();
        let (sim, net) = (&mut self.sim, &self.net);
        let deadline = sim.now();
        harness::meter_add(
            deadline.saturating_since(SimTime::ZERO).as_nanos(),
            sim.events_processed(),
        );
        let slots = net.bottlenecks.len();

        // Oracle: every flow terminal by the deadline, unless its own floor
        // does not fit between its start and the deadline.
        let mut stuck = 0;
        for &(flow, pair, at, bytes) in &self.started {
            let sender = sim.node_as::<Host>(net.pairs[pair].0).unwrap();
            if sender.sender(flow).is_none() {
                continue;
            }
            let floor = fct_floor_ns(&net.routes[pair], &self.faults, slots, bytes);
            if floor > deadline.saturating_since(at).as_nanos() as f64 {
                report.censored += 1;
            } else {
                stuck += 1;
            }
        }
        if stuck > 0 {
            let last = self.started.last().map_or(SimTime::ZERO, |s| s.2);
            report.fail(
                "terminal",
                format!(
                    "{stuck} flow(s) still not terminal {}s after the last start",
                    deadline.saturating_since(last).as_secs_f64()
                ),
            );
        }
        if report.censored == 0 {
            sim.run_to_completion(50_000_000);
            // Oracle: clean drain (only meaningful once everything is
            // terminal — an unfinished flow legitimately still owns timers).
            if stuck == 0 {
                let hygiene = sim.hygiene_report();
                if !hygiene.is_clean() {
                    report.fail("drain", format!("simulation did not drain: {hygiene}"));
                }
            }
        }

        // Oracle: per-link conservation, offer side and wire side. What a
        // link still holds is in flight, and the arena must hold exactly
        // that (nothing, once drained).
        let mut in_flight = 0i64;
        for l in 0..sim.link_count() {
            let link = LinkId(l as u32);
            let s = sim.link_stats(link);
            let q = sim.queue_stats(link);
            report.queue_drops += q.dropped;
            report.link_lost += s.lost_total();
            let queued = s.offered as i64 - (s.down_dropped + q.dropped + s.tx_packets) as i64;
            let propagating = (s.tx_packets + s.duplicated) as i64
                - (s.wire_lost + s.blackholed + s.corrupt_dropped + s.delivered) as i64;
            if queued < 0 || propagating < 0 {
                report.fail(
                    "conservation",
                    format!(
                        "link {l}: more out than in: offered {}, down-dropped {}, queue-dropped {}, \
                         tx {}, dup {}, wire-lost {}, blackholed {}, corrupt {}, delivered {}",
                        s.offered, s.down_dropped, q.dropped, s.tx_packets, s.duplicated,
                        s.wire_lost, s.blackholed, s.corrupt_dropped, s.delivered
                    ),
                );
            }
            in_flight += queued + propagating;
        }
        if in_flight != sim.live_packets() as i64 {
            report.fail(
                "conservation",
                format!(
                    "the links hold {in_flight} packet(s) in flight, the arena {}",
                    sim.live_packets()
                ),
            );
        }
        report.bottlenecks = net.bottlenecks.iter().map(|&l| sim.link_stats(l)).collect();

        // Oracle: live transport invariants (ghost bytes, ACK monotonicity)
        // plus routing/stray hygiene.
        for node in net.pairs.iter().flat_map(|&(s, r)| [s, r]) {
            let host = sim.node_as::<Host>(node).unwrap();
            let strays =
                (host.stray_packets > 0).then(|| format!("{} stray packet(s)", host.stray_packets));
            for b in host.invariant_breaches().iter().cloned().chain(strays) {
                report.fail("transport", format!("host {}: {b}", node.0));
            }
        }
        for &r in &net.routers {
            let router = sim.node_as::<Router>(r).unwrap();
            if router.unroutable() > 0 {
                report.fail(
                    "transport",
                    format!(
                        "router {}: {} unroutable packet(s)",
                        r.0,
                        router.unroutable()
                    ),
                );
            }
        }

        // Per-flow oracles over the senders' completion records.
        let single = self.started.len() == 1;
        for (pair, &(s, r)) in net.pairs.iter().enumerate() {
            let receiver_host = sim.node_as::<Host>(r).unwrap();
            for rec in sim.node_as::<Host>(s).unwrap().completed() {
                report.records.push(rec.clone());
                let flow = rec.flow;
                report.violations.extend(rto_sanity(rec));
                match rec.outcome {
                    FlowOutcome::Completed => {
                        report.completed += 1;
                        let got = receiver_host
                            .receiver(flow)
                            .map(|rc| (rc.delivered_bytes, rc.complete_at.is_some()));
                        if got != Some((rec.bytes, true)) {
                            let detail = format!(
                                "flow {flow}: sender reports completion of {} bytes, receiver \
                                 has (bytes, complete) {got:?}",
                                rec.bytes
                            );
                            report.fail("delivery", detail);
                        }
                        let floor = fct_floor_ns(&net.routes[pair], &self.faults, slots, rec.bytes);
                        if (rec.fct.as_nanos() as f64) < floor * 0.99 {
                            report.fail(
                                "fct-bound",
                                format!(
                                    "flow {flow}: FCT {:.3}ms beats the store-and-forward \
                                     floor {:.3}ms",
                                    rec.fct.as_nanos() as f64 / 1e6,
                                    floor / 1e6
                                ),
                            );
                        }
                        if self.pristine && single && rec.counters.rto_events > 0 {
                            report.fail(
                                "rto-sanity",
                                format!(
                                    "flow {flow}: {} RTO event(s) on a pristine single-flow case",
                                    rec.counters.rto_events
                                ),
                            );
                        }
                    }
                    FlowOutcome::Aborted(_) => {
                        report.aborted += 1;
                        if self.pristine {
                            report.fail(
                                "delivery",
                                format!("flow {flow}: aborted on a pristine case"),
                            );
                        }
                    }
                }
            }
        }

        if let Some(wire) = &self.wire {
            let recorded = |nodes: &mut dyn Iterator<Item = NodeId>| -> Vec<FlowEventRecord> {
                nodes
                    .filter_map(|n| sim.node_as::<Host>(n).and_then(|h| h.recorder()))
                    .flat_map(|r| r.events().copied())
                    .collect()
            };
            report.streams = Streams {
                wire: wire.take(),
                snd: recorded(&mut net.pairs.iter().map(|p| p.0)),
                rcv: recorded(&mut net.pairs.iter().map(|p| p.1)),
            };
        }
        report
    }
}

/// Build `spec` restricted to `sel`, start its flows on schedule (flow ids
/// are 1 + original index, so a shrunk case keeps its flow identities),
/// run to `spec.horizon` after the last start and finish. The rig comes
/// back too, for callers that read host state after the run.
pub fn run_rig(spec: &CaseSpec, sel: &Selection, record_trace: bool) -> (Rig, CaseReport) {
    let mut rig = Rig::new(spec, sel, record_trace);
    let mut last = SimTime::ZERO;
    for &fi in &sel.flows {
        let f = &spec.flows[fi];
        let at = SimTime::ZERO + SimDuration::from_nanos(f.at_ns);
        rig.run_until(at);
        rig.start(FlowId(fi as u64 + 1), f.pair, f.bytes, f.protocol);
        last = at;
    }
    rig.run_until(last + spec.horizon);
    let report = rig.finish();
    (rig, report)
}

/// FCT in nanoseconds of a single clean flow of `protocol` over `hops`
/// (None if it did not complete — itself a bug on a clean path, reported
/// by the caller).
fn reference_fct_ns(seed: u64, hops: &[HopSpec], protocol: Protocol, bytes: u64) -> Option<u64> {
    let chain = Topology::Chain(hops.to_vec());
    let case = CaseSpec::single(seed, chain, protocol, bytes, SimDuration::from_secs(240));
    let (_, report) = run_rig(&case, &Selection::full(&case), false);
    let first = report.completed_records().into_iter().next();
    first.map(|r| r.fct.as_nanos())
}

/// Execute `spec` restricted to `sel` and run the oracle battery.
pub fn run_case(spec: &CaseSpec, sel: &Selection, record_trace: bool) -> CaseReport {
    let (rig, mut report) = run_rig(spec, sel, record_trace);

    // Differential oracle: on pristine, RTT-dominated short-flow cases,
    // Halfback must not lose to TCP beyond a small tolerance — the paper's
    // claim, demoted to an invariant. Serialization-dominated or large
    // flows are excluded: there the proactive tail legitimately costs
    // extra serialization.
    if let (true, Topology::Chain(hops)) = (rig.pristine && sel.flows.len() == 1, &spec.topology) {
        let hops = &hops[..sel.hops.clamp(1, hops.len())];
        let bytes = spec.flows[sel.flows[0]].bytes.min(100_000);
        let rtt_ns = 2.0 * hops.iter().map(|h| h.delay_ms as f64 * 1e6).sum::<f64>();
        let bottleneck = hops.iter().map(|h| h.rate_mbps).min().unwrap() as f64;
        let ser_ns = flow_wire_bytes(bytes) as f64 * 8_000.0 / bottleneck;
        if ser_ns <= rtt_ns {
            let hb = reference_fct_ns(spec.engine_seed, hops, Protocol::Halfback, bytes);
            let tcp = reference_fct_ns(spec.engine_seed, hops, Protocol::Tcp, bytes);
            match (hb, tcp) {
                (Some(hb), Some(tcp)) => {
                    if hb as f64 > tcp as f64 * 1.10 + 10e6 {
                        report.fail(
                            "differential",
                            format!(
                                "Halfback FCT {:.3}ms > TCP {:.3}ms on a clean \
                                 RTT-dominated path ({bytes} bytes)",
                                hb as f64 / 1e6,
                                tcp as f64 / 1e6
                            ),
                        );
                    }
                }
                _ => report.fail(
                    "differential",
                    format!(
                        "a clean-path reference flow failed to complete \
                         (halfback: {}, tcp: {})",
                        hb.is_some(),
                        tcp.is_some()
                    ),
                ),
            }
        }
    }

    // Test hook: a deliberately broken "conservation" verdict that needs at
    // least one flow and one fault to reproduce, so the shrinker has a
    // known fixed point to converge to.
    if spec.break_conservation && !sel.flows.is_empty() && !sel.faults.is_empty() {
        report.fail(
            "conservation",
            "deliberate conservation break (test hook)".to_string(),
        );
    }
    report
}

/// Run the whole of `spec` as a figure does: a violation fails the calling
/// job with `oracle <kind>: <detail>`.
pub fn run_figure(spec: &CaseSpec) -> CaseReport {
    run_case(spec, &Selection::full(spec), false).judged()
}

/// One flow of `bytes` from t = 0 on a two-host path, run as a figure
/// does: its record, if it completed within `grace`.
pub fn single_path_flow(
    spec: &PathSpec,
    protocol: Protocol,
    bytes: u64,
    seed: u64,
    grace: SimDuration,
) -> Option<FlowRecord> {
    let case = CaseSpec::single(seed, Topology::Path(spec.clone()), protocol, bytes, grace);
    run_figure(&case).completed_records().into_iter().next()
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
    if sel.hops != spec.topology.hop_count() {
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
    use netsim::queue::QueueStats;
    use netsim::snap::{SnapReader, SnapWriter};

    /// The route of `pair` in `topology`, as the rig builds it.
    fn route_of(topology: &Topology, pair: usize) -> Vec<Leg> {
        let mut sim = TransportSim::new(0);
        let host = || -> Box<dyn Node<Header>> { Box::new(Host::new()) };
        let mut net = build(&mut sim, topology, topology.hop_count(), host);
        net.routes.swap_remove(pair)
    }

    /// Every shape but the chain, each with an endpoint pair and that
    /// pair's base round trip, read off the spec rather than the route.
    fn shapes() -> Vec<(Topology, usize, SimDuration)> {
        let path = PathSpec::clean(Rate::from_mbps(20), SimDuration::from_millis(50));
        let dumbbell = DumbbellSpec::emulab(2);
        let lot = ParkingLotSpec::emulab_like(3);
        let access = ParkingLotSpec::ACCESS_DELAY * 2;
        vec![
            (Topology::Path(path), 0, SimDuration::from_millis(50)),
            (Topology::Dumbbell(dumbbell.clone()), 1, dumbbell.base_rtt()),
            // A through pair crosses all three hops, hop 0's first cross
            // pair only the first.
            (
                Topology::ParkingLot(lot.clone()),
                0,
                (access + lot.hop_delay * 3) * 2,
            ),
            (
                Topology::ParkingLot(lot.clone()),
                lot.n_through,
                (access + lot.hop_delay) * 2,
            ),
        ]
    }

    /// One flow from t = 0 on `pair`.
    fn one_flow(topology: Topology, pair: usize, protocol: Protocol, bytes: u64) -> CaseSpec {
        let mut case = CaseSpec::single(7, topology, protocol, bytes, SimDuration::from_secs(60));
        case.flows[0].pair = pair;
        case
    }

    /// A fault that changes nothing a 60 s run sees.
    fn idle_fault(hop: usize) -> FaultEvent {
        let kind = FaultKind::Down {
            start_ms: 100_000 + hop as u64,
            dur_ms: 1,
        };
        FaultEvent { hop, kind }
    }

    #[test]
    fn break_hook_fires_and_shrinks_on_every_shape_and_fails_a_figure_job() {
        for (topology, pair, _) in shapes() {
            let mut case = one_flow(topology, pair, Protocol::Tcp, 50_000);
            case.flows.push(case.flows[0].clone());
            case.flows[1].at_ns = 1_000_000_000;
            case.faults = vec![idle_fault(0), idle_fault(1)];
            case.break_conservation = true;
            let sel = Selection::full(&case);
            let report = run_case(&case, &sel, false);
            let kinds: Vec<&str> = report.violations.iter().map(|v| v.kind).collect();
            assert_eq!(kinds, ["conservation"], "{:?}", case.topology);
            let shrunk = shrink_case(&case, sel, "conservation");
            assert_eq!(
                (shrunk.flows.len(), shrunk.faults.len(), shrunk.hops),
                (1, 1, 1)
            );

            // In a figure's job the violation fails the whole map.
            let ctx = RunCtx::new(crate::Scale::Quick);
            let failed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                harness::parallel_map(&ctx, vec![case], |_| "broken".into(), |c| run_figure(&c))
            }));
            let message = *failed.unwrap_err().downcast::<String>().unwrap();
            assert!(
                message.contains("oracle conservation: deliberate"),
                "{message}"
            );
        }
    }

    #[test]
    fn floor_sits_between_two_base_rtts_and_a_clean_halfback_flow() {
        for (topology, pair, base_rtt) in shapes() {
            let floor = fct_floor_ns(&route_of(&topology, pair), &[], 1, 100_000);
            assert!(
                floor >= 2.0 * base_rtt.as_nanos() as f64,
                "{topology:?}: {floor}"
            );
            let report = run_figure(&one_flow(topology, pair, Protocol::Halfback, 100_000));
            let fct = report.completed_records()[0].fct.as_nanos() as f64;
            assert!(
                floor <= fct,
                "floor {floor} ns above a clean Halfback flow's {fct} ns"
            );
        }
    }

    #[test]
    fn a_stranded_short_flow_is_terminal_and_a_long_one_censored() {
        // A blackhole over the whole run strands a 100 KB flow; its floor
        // fits many times over before the deadline.
        let path = PathSpec::clean(Rate::from_mbps(20), SimDuration::from_millis(50));
        let mut case = one_flow(Topology::Path(path), 0, Protocol::Tcp, 100_000);
        case.horizon = SimDuration::from_secs(30);
        let kind = FaultKind::Blackhole {
            start_ms: 0,
            dur_ms: 100_000,
        };
        case.faults = vec![FaultEvent { hop: 0, kind }];
        let report = run_case(&case, &Selection::full(&case), false);
        assert_eq!(report.censored, 0);
        assert!(
            report.violations.iter().any(|v| v.kind == "terminal"),
            "{:?}",
            report.violations
        );

        // 2 GB at 15 Mbps needs over 1,000 s: still running at a 60 s
        // deadline is censored, and the undrained run still balances.
        let topology = Topology::Dumbbell(DumbbellSpec::emulab(1));
        let report = run_figure(&one_flow(topology, 0, Protocol::Tcp, 2_000_000_000));
        assert_eq!((report.censored, report.completed), (1, 0));
    }

    /// Find a case id whose generated spec has at least one fault and two
    /// flows and two hops — a meaty target for the shrinker test.
    fn meaty_case(seed: u64) -> CaseSpec {
        (0..500)
            .map(|id| generate_case(seed, id))
            .find(|s| s.faults.len() >= 2 && s.flows.len() >= 3 && s.topology.hop_count() >= 2)
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
        assert!(specs.iter().any(|s| s.topology.hop_count() > 1));
        assert!(specs.iter().any(|s| !s.faults.is_empty()));
        assert!(specs.iter().any(|s| matches!(&s.topology,
            Topology::Chain(hops) if hops.iter().any(|h| h.buffer_bytes < 1500))));
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
        if spec.topology.hop_count() > 1 {
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
        let route = &route_of(&Topology::Chain(hops), 0);
        let base = fct_floor_ns(route, &[], 1, 10_000);
        // A rate step up to 50 Mbps makes the best case much faster…
        let step = FaultEvent {
            hop: 0,
            kind: FaultKind::RateStep {
                at_ms: 10,
                mbps: 50,
            },
        };
        let with_step = fct_floor_ns(route, std::slice::from_ref(&step), 1, 10_000);
        assert!(with_step < base);
        // …and a delay step down shrinks the floor further.
        let dstep = FaultEvent {
            hop: 0,
            kind: FaultKind::DelayStep { at_ms: 10, ms: 1 },
        };
        let both = fct_floor_ns(route, &[step, dstep], 1, 10_000);
        assert!(both < with_step);
    }

    impl Rig {
        /// What a kill loses: the engine, every pair's two hosts in
        /// `net.pairs` order, and the TCP-Cache path table.
        fn save(&mut self) -> Vec<u8> {
            let mut w = SnapWriter::new();
            self.sim.save_snapshot(&mut w);
            for h in self.net.pairs.iter().flat_map(|&(s, r)| [s, r]) {
                self.sim.node_as::<Host>(h).unwrap().save(&mut w);
            }
            w.put(&*self.cache.borrow());
            w.into_bytes()
        }

        /// A fresh build of `spec` under `sel` with `saved` overlaid, and
        /// this rig's started flows carried over.
        fn restored(&self, spec: &CaseSpec, sel: &Selection, saved: &[u8]) -> Rig {
            let mut rig = Rig::new(spec, sel, false);
            let mut r = SnapReader::new(saved);
            rig.sim.restore_snapshot(&mut r).unwrap();
            let (pairs, cache) = (rig.net.pairs.clone(), rig.cache.clone());
            let mut strategy = |flow: FlowId| {
                let f = &spec.flows[flow.0 as usize - 1];
                f.protocol.make(&cache, pairs[f.pair])
            };
            for h in pairs.iter().flat_map(|&(s, r)| [s, r]) {
                let host = rig.sim.node_as_mut::<Host>(h).unwrap();
                host.load(&mut r, &mut strategy).unwrap();
            }
            *rig.cache.borrow_mut() = r.get().unwrap();
            assert_eq!(r.remaining(), 0, "the restore left bytes unread");
            rig.started = self.started.clone();
            rig
        }
    }

    /// The bottlenecks' link and queue stats at the cut.
    type AtCut = Vec<(LinkStats, QueueStats)>;

    /// [`run_rig`] killed at `cut`: there the rig is saved and dropped, and
    /// a fresh build restored from the save runs the rest of the schedule.
    fn run_rig_killed(spec: &CaseSpec, sel: &Selection, cut: SimTime) -> (Rig, CaseReport, AtCut) {
        let mut rig = Rig::new(spec, sel, false);
        let mut at_cut = None;
        let mut advance = |rig: &mut Rig, until: SimTime| {
            if at_cut.is_none() && cut <= until {
                rig.run_until(cut);
                let stats = |&l| (rig.sim.link_stats(l), rig.sim.queue_stats(l));
                at_cut = Some(rig.net.bottlenecks.iter().map(stats).collect());
                let saved = rig.save();
                *rig = rig.restored(spec, sel, &saved);
            }
            rig.run_until(until);
        };
        let mut last = SimTime::ZERO;
        for &fi in &sel.flows {
            let f = &spec.flows[fi];
            let at = SimTime::ZERO + SimDuration::from_nanos(f.at_ns);
            advance(&mut rig, at);
            rig.start(FlowId(fi as u64 + 1), f.pair, f.bytes, f.protocol);
            last = at;
        }
        advance(&mut rig, last + spec.horizon);
        let report = rig.finish();
        (
            rig,
            report,
            at_cut.expect("the cut falls before the deadline"),
        )
    }

    /// A seeded instant in `[from, to]`.
    fn seeded_cut(salt: u64, from: SimTime, to: SimTime) -> SimTime {
        let span = to.saturating_since(from).as_nanos();
        let offset = SimRng::new(salt).fork("cut").next_u64() % (span + 1);
        from + SimDuration::from_nanos(offset)
    }

    /// A seeded instant between `from` and the last terminal flow of
    /// `report`.
    fn cut_before_last_done(salt: u64, from: SimTime, report: &CaseReport) -> SimTime {
        let last = report.records.iter().map(|r| r.done_at).max();
        seeded_cut(salt, from, last.unwrap_or(from))
    }

    /// Run `spec` whole, and again killed at `cut(whole report)` and
    /// resumed: the reports (violations, counts, records, bottleneck
    /// `LinkStats`, queue drops, link losses) and the event counts must
    /// be equal. Returns the whole run's report and the stats at the cut.
    fn assert_resume_matches(
        spec: &CaseSpec,
        cut: impl FnOnce(&CaseReport) -> SimTime,
    ) -> (CaseReport, AtCut) {
        let sel = Selection::full(spec);
        let (whole, want) = run_rig(spec, &sel, false);
        let cut = cut(&want);
        let (resumed, got, at_cut) = run_rig_killed(spec, &sel, cut);
        let what = format!("case {}/{} cut at {cut}", spec.seed, spec.id);
        assert_eq!(format!("{got:?}"), format!("{want:?}"), "{what}");
        let events = |rig: &Rig| rig.sim.events_processed();
        assert_eq!(events(&resumed), events(&whole), "{what}");
        (want, at_cut)
    }

    fn flow(at_ms: u64, bytes: u64, protocol: Protocol, pair: usize) -> FlowSpec {
        FlowSpec {
            at_ns: at_ms * 1_000_000,
            bytes,
            protocol,
            pair,
        }
    }

    #[test]
    fn resumed_runs_match_uninterrupted_runs() {
        let ms = |x: u64| SimTime::ZERO + SimDuration::from_millis(x);
        for id in 0..DEFAULT_CASES {
            let spec = generate_case(42, id);
            let first = SimTime::ZERO + SimDuration::from_nanos(spec.flows[0].at_ns);
            assert_resume_matches(&spec, |r| cut_before_last_done(id, first, r));
        }

        // Every fault kind across a cut at 1.5 s: the down and blackhole
        // windows span it, and a rate and a delay step fall on each side.
        let faults = [
            FaultKind::Down {
                start_ms: 1_400,
                dur_ms: 200,
            },
            FaultKind::Blackhole {
                start_ms: 1_450,
                dur_ms: 150,
            },
            FaultKind::Reorder {
                prob: 0.1,
                max_extra_us: 2_000,
            },
            FaultKind::Duplicate { prob: 0.05 },
            FaultKind::Corrupt { prob: 0.02 },
            FaultKind::RateStep {
                at_ms: 1_000,
                mbps: 5,
            },
            FaultKind::RateStep {
                at_ms: 2_000,
                mbps: 20,
            },
            FaultKind::DelayStep {
                at_ms: 1_200,
                ms: 10,
            },
            FaultKind::DelayStep {
                at_ms: 1_800,
                ms: 30,
            },
        ];
        let flows = Protocol::EVALUATED
            .iter()
            .enumerate()
            .map(|(i, &p)| flow(200 * i as u64, 250_000, p, 0))
            .collect();
        let mut hop = HopSpec::clean(10, 20);
        hop.buffer_bytes = 100_000;
        let spec = CaseSpec::one_hop(3, hop, &faults, flows, SimDuration::from_secs(500));
        let (whole, at_cut) = assert_resume_matches(&spec, |_| ms(1_500));
        let (before, after) = (&at_cut[0].0, &whole.bottlenecks[0]);
        let counters =
            |s: &LinkStats| [s.down_dropped, s.blackholed, s.corrupt_marked, s.duplicated];
        for (i, (b, a)) in counters(before)
            .into_iter()
            .zip(counters(after))
            .enumerate()
        {
            assert!(
                b < a,
                "fault counter {i} did not move after the cut: {b} -> {a}"
            );
        }
        assert!(counters(before)[2..].iter().all(|&n| n > 0));

        // The aqm figure's CoDel dumbbell: the slow-start overshoot of four
        // background flows keeps CoDel in its dropping state from ~0.5 s to
        // ~1.25 s, and the cut falls inside that while the shorts, all
        // eight schemes, are in flight.
        let mut dumbbell = DumbbellSpec::emulab_with_buffer(8, 600_000);
        dumbbell.bottleneck_codel = true;
        let background = (0..4).map(|i| flow(100 * i, 4_000_000, Protocol::Tcp, i as usize));
        let shorts = Protocol::EVALUATED
            .iter()
            .enumerate()
            .map(|(i, &p)| flow(400 + 50 * i as u64, 100_000, p, 4 + i % 4));
        let flows = background.chain(shorts).collect();
        let horizon = SimDuration::from_secs(60);
        let spec = CaseSpec::new(89, Topology::Dumbbell(dumbbell), flows, horizon);
        let (_, at_cut) = assert_resume_matches(&spec, |_| seeded_cut(1, ms(700), ms(1_100)));
        assert!(at_cut[0].1.dropped > 0, "CoDel had not dropped by the cut");

        // A parking lot with through and cross traffic on every pair.
        let lot = ParkingLotSpec::emulab_like(3);
        let pairs = lot.n_through + lot.hops * lot.n_cross_per_hop;
        let flows = (0..pairs)
            .map(|p| flow(50 * p as u64, 200_000, Protocol::EVALUATED[p % 8], p))
            .collect();
        let spec = CaseSpec::new(5, Topology::ParkingLot(lot), flows, horizon);
        assert_resume_matches(&spec, |r| cut_before_last_done(2, SimTime::ZERO, r));

        // A path with its own fault steps, on both sides of any cut.
        let mut path = PathSpec::clean(Rate::from_mbps(20), SimDuration::from_millis(60));
        path.faults = FaultSpec::none()
            .rate_step(ms(300), Rate::from_mbps(4))
            .delay_step(ms(600), SimDuration::from_millis(10))
            .rate_step(ms(1_500), Rate::from_mbps(30));
        let flows = (0..4)
            .map(|i| flow(400 * i, 300_000, Protocol::EVALUATED[2 * i as usize], 0))
            .collect();
        let spec = CaseSpec::new(6, Topology::Path(path), flows, horizon);
        assert_resume_matches(&spec, |r| cut_before_last_done(3, SimTime::ZERO, r));
    }
}
