//! Probe rigs: each rebuilds the shape of one workload from the public layer
//! constructors, so the benchmark can put spans around the calls into each
//! layer. A rig runs twice per traced run — once plain, once with the timing
//! shims of [`crate::trace`] installed — and both runs must simulate exactly
//! the same thing; the wall-time ratio of the two is the tracing overhead.
//!
//! | rig | stands for | shape |
//! |---|---|---|
//! | [`open_loop`] | `weather_*` | emulab dumbbell, 8 pairs, diurnal Poisson arrivals of the weather size mix at 40 % |
//! | [`crate::sharded`] | `sharded_dense_*` | the scenario itself, with shard telemetry on |
//! | [`dumbbell`] | `dumbbell_figures` | congested emulab dumbbell, 100 KB flows at 60 %, TCP / JumpStart / Halfback |
//! | [`tiny_path`] | `tiny_sims` | thousands of one-flow simulators on PlanetLab-like paths, a fifth of them lossy |

pub mod dumbbell;
pub mod open_loop;
pub mod tiny_path;

use crate::trace::{self, Span, TimedNode, TimedStrategy, TraceData};
use baselines::PathCache;
use netsim::{LinkId, NodeId};
use scenarios::Protocol;
use std::time::Instant;
use transport::sender::FlowRecord;
use transport::strategy::Strategy;
use transport::{Header, Host, TransportSim};

/// Whether a rig installs the timing shims. The plain variant builds exactly
/// what the repository's own runners build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shim(pub bool);

impl Shim {
    /// A fresh host node, wrapped when shimming.
    pub fn host(self) -> Box<dyn netsim::Node<Header>> {
        let host: Box<dyn netsim::Node<Header>> = Box::new(Host::new());
        if self.0 {
            TimedNode::wrap(host)
        } else {
            host
        }
    }

    /// A sender strategy for `protocol`, wrapped when shimming.
    pub fn strategy(
        self,
        protocol: Protocol,
        cache: &PathCache,
        key: (NodeId, NodeId),
    ) -> Box<dyn Strategy> {
        self.wrap_strategy(protocol.make(cache, key))
    }

    /// `strategy` itself, wrapped when shimming.
    pub fn wrap_strategy(self, strategy: Box<dyn Strategy>) -> Box<dyn Strategy> {
        if self.0 {
            TimedStrategy::wrap(strategy)
        } else {
            strategy
        }
    }
}

/// Network-layer counts, summed over every simulator a rig ran.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetCounts {
    /// Simulators built.
    pub sims: u64,
    /// Events dispatched.
    pub events: u64,
    /// Packets serialized onto a link.
    pub tx_packets: u64,
    /// Of those, packets on links built with a loss model or a fault spec,
    /// which leave the engine's `plain` transmit path.
    pub nonplain_tx_packets: u64,
    /// Packets lost on the wire (loss model, down window, blackhole).
    pub lost_packets: u64,
    /// Packets dropped by a full (or AQM) queue.
    pub queue_dropped: u64,
    /// Deepest queue backlog seen on any link, bytes.
    pub max_backlog_bytes: u64,
    /// Most events pending at once, sampled where the rig holds the
    /// simulator between calls.
    pub pending_events_max: u64,
    /// Largest packet-arena high-water mark of any simulator.
    pub arena_high_water: u64,
}

impl NetCounts {
    /// Add a finished simulator. `nonplain` lists the links the rig built
    /// with loss or faults.
    pub fn add_sim(&mut self, sim: &TransportSim, nonplain: &[LinkId]) {
        self.sims += 1;
        self.events += sim.events_processed();
        self.arena_high_water = self.arena_high_water.max(sim.arena_high_water() as u64);
        for l in (0..sim.link_count()).map(|i| LinkId(i as u32)) {
            let (ls, qs) = (sim.link_stats(l), sim.queue_stats(l));
            self.tx_packets += ls.tx_packets;
            if nonplain.contains(&l) {
                self.nonplain_tx_packets += ls.tx_packets;
            }
            self.lost_packets += ls.lost_total();
            self.queue_dropped += qs.dropped;
            self.max_backlog_bytes = self.max_backlog_bytes.max(qs.max_backlog_bytes);
        }
    }

    /// Note the number of events pending right now.
    pub fn sample_pending(&mut self, sim: &TransportSim) {
        self.pending_events_max = self.pending_events_max.max(sim.pending_events() as u64);
    }

    /// Fold in the counts of another partition or simulator batch.
    pub fn merge(&mut self, o: &NetCounts) {
        self.sims += o.sims;
        self.events += o.events;
        self.tx_packets += o.tx_packets;
        self.nonplain_tx_packets += o.nonplain_tx_packets;
        self.lost_packets += o.lost_packets;
        self.queue_dropped += o.queue_dropped;
        self.max_backlog_bytes = self.max_backlog_bytes.max(o.max_backlog_bytes);
        self.pending_events_max = self.pending_events_max.max(o.pending_events_max);
        self.arena_high_water = self.arena_high_water.max(o.arena_high_water);
    }
}

/// Transport-layer counts, summed over the flow records a rig collected.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlowCounts {
    /// Flows started.
    pub started: u64,
    /// Flows that gave up.
    pub aborted: u64,
    /// Completion time of every completed flow, nanoseconds of simulated
    /// time, in collection order.
    pub fct_ns: Vec<u64>,
    /// Payload bytes of completed flows.
    pub payload_bytes: u64,
    /// Wire bytes their senders put out (data, copies, control).
    pub wire_bytes: u64,
    /// Data packets sent, every class.
    pub data_packets: u64,
    /// Reactive retransmissions (fast retransmit, RTO, probe).
    pub reactive_retx: u64,
    /// Proactive copies (ROPR, Proactive TCP duplicates).
    pub proactive_copies: u64,
    /// Retransmission timeouts.
    pub rto_events: u64,
}

impl FlowCounts {
    /// Account one finished flow.
    pub fn add_record(&mut self, r: &FlowRecord) {
        if !r.outcome.is_completed() {
            self.aborted += 1;
            return;
        }
        self.fct_ns.push(r.fct.as_nanos());
        self.payload_bytes += r.bytes;
        self.wire_bytes += r.counters.wire_bytes_sent;
        self.data_packets += r.counters.data_packets_sent;
        self.reactive_retx += r.counters.normal_retx;
        self.proactive_copies += r.counters.proactive_retx;
        self.rto_events += r.counters.rto_events;
    }

    /// Flows that completed.
    pub fn completed(&self) -> u64 {
        self.fct_ns.len() as u64
    }

    /// Flows neither completed nor aborted when the rig stopped.
    pub fn unfinished(&self) -> u64 {
        self.started - self.completed() - self.aborted
    }

    /// Fold in another partition's or simulator's flows.
    pub fn merge(&mut self, o: FlowCounts) {
        self.started += o.started;
        self.aborted += o.aborted;
        self.fct_ns.extend(o.fct_ns);
        self.payload_bytes += o.payload_bytes;
        self.wire_bytes += o.wire_bytes;
        self.data_packets += o.data_packets;
        self.reactive_retx += o.reactive_retx;
        self.proactive_copies += o.proactive_copies;
        self.rto_events += o.rto_events;
    }

    /// Mean completion time, simulated milliseconds (0 with no flows).
    pub fn fct_ms_mean(&self) -> f64 {
        if self.fct_ns.is_empty() {
            return 0.0;
        }
        self.fct_ns.iter().map(|&ns| ns as u128).sum::<u128>() as f64
            / self.fct_ns.len() as f64
            / 1e6
    }

    /// Nearest-rank 99th percentile completion time, simulated milliseconds.
    pub fn fct_ms_p99(&self) -> f64 {
        if self.fct_ns.is_empty() {
            return 0.0;
        }
        let mut sorted = self.fct_ns.clone();
        sorted.sort_unstable();
        let rank = (sorted.len() * 99).div_ceil(100).max(1);
        sorted[rank - 1] as f64 / 1e6
    }
}

/// Shard-engine counts of a sharded rig run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShardCounts {
    /// Conservative windows executed.
    pub windows: u64,
    /// Packets that crossed a partition boundary.
    pub cross_messages: u64,
    /// Host nanoseconds worker threads spent blocked on window barriers.
    pub barrier_ns: u64,
    /// Host nanoseconds spent advancing partitions through their windows.
    pub window_ns: u64,
    /// Σ over windows of the busiest thread's events ÷ Σ of the mean
    /// thread's: 1.0 is perfect balance, and the slowest thread sets each
    /// window's length.
    pub imbalance: f64,
}

/// Everything one run of a rig produced.
#[derive(Debug, Clone, Default)]
pub struct RigRun {
    /// Host nanoseconds, rig start to finish.
    pub wall_ns: u64,
    /// Worker threads the rig ran on (1 unless sharded).
    pub threads: u64,
    /// Network-layer counts.
    pub net: NetCounts,
    /// Transport-layer counts.
    pub flows: FlowCounts,
    /// Receiver endpoints reaped (open-loop rig only).
    pub reaped: u64,
    /// Shard-engine counts (sharded rig only).
    pub shard: Option<ShardCounts>,
    /// Spans recorded; empty when the rig ran without shims.
    pub trace: TraceData,
}

impl RigRun {
    /// The simulated behaviour of a run: every count that must not depend on
    /// whether the shims were installed.
    pub fn simulated(&self) -> (&NetCounts, &FlowCounts, u64, Option<(u64, u64)>) {
        (
            &self.net,
            &self.flows,
            self.reaped,
            self.shard.as_ref().map(|s| (s.windows, s.cross_messages)),
        )
    }
}

/// Run `body` as a single-threaded rig: recording when shimming, the whole
/// body inside one `rig` span, wall time taken around it. `body` fills in the
/// counts.
pub fn single_threaded(shim: Shim, body: impl FnOnce(&mut RigRun)) -> RigRun {
    let started = Instant::now();
    if shim.0 {
        trace::start();
    }
    let mut run = RigRun {
        threads: 1,
        ..RigRun::default()
    };
    trace::within(Span::Rig, || body(&mut run));
    if shim.0 {
        run.trace = trace::stop();
    }
    run.wall_ns = started.elapsed().as_nanos() as u64;
    run
}
