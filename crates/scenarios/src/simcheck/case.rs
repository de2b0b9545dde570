//! The spec types of a case and the battery's generator: a case is a
//! [`Topology`] plus fault events on its bottleneck links and flows on its
//! endpoint pairs, and a [`Selection`] of its parts is what the shrinker
//! edits.

use crate::protocols::Protocol;
use netsim::loss::LossModel;
use netsim::rng::SimRng;
use netsim::topology::{DumbbellSpec, ParkingLotSpec, PathSpec};
use netsim::{Rate, SimDuration};

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
    /// A two-host path ([`netsim::topology::build_path`]): one endpoint pair.
    Path(PathSpec),
    /// The Emulab dumbbell ([`netsim::topology::build_dumbbell`]): pair `i` is left host `i`
    /// to right host `i`.
    Dumbbell(DumbbellSpec),
    /// A parking lot ([`netsim::topology::build_parking_lot`]): the through pairs first, then
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

    /// A chain's first `hops` hops (at least one); `None` on every other
    /// shape.
    pub fn chain(&self, hops: usize) -> Option<&[HopSpec]> {
        match self {
            Topology::Chain(all) => Some(&all[..hops.clamp(1, all.len())]),
            _ => None,
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

/// The fault vocabulary, mirroring [`netsim::FaultSpec`]'s builders. Reordering,
/// duplication and corruption are kept off the ACK path (faults install on
/// forward links only) so the cumulative-ACK monotonicity oracle stays
/// sound.
#[derive(Debug, Clone, Copy)]
#[allow(missing_docs)] // field names (start_ms, prob, …) are self-describing
pub enum FaultKind {
    /// Link refuses packets during a window.
    Down { start_ms: u64, dur_ms: u64 },
    /// Link swallows packets whose serialization ends in a window.
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
#[derive(Debug, Clone, Copy)]
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
