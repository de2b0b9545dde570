//! Simulation runners: execute flow schedules on topologies and collect
//! records.

use crate::protocols::Protocol;
use baselines::{path_cache, PathCache};
use netsim::topology::{build_dumbbell, build_path, DumbbellSpec, PathSpec};
use netsim::{FlowId, SimDuration, SimTime};
use transport::sender::FlowRecord;
use transport::{Host, TransportSim};

/// Advance `sim` to `until` under the harness watchdog: every
/// `WATCHDOG_STRIDE` events the job's virtual-time/event caps are checked,
/// so a livelocked simulation panics (isolated per cell by the harness)
/// instead of hanging the sweep. With the caps disabled this is exactly
/// `run_until`.
pub fn run_until_checked(sim: &mut TransportSim, until: SimTime) {
    const WATCHDOG_STRIDE: u64 = 4096;
    let (cap_ns, cap_ev) = crate::harness::job_caps();
    if cap_ns == 0 && cap_ev == 0 {
        sim.run_until(until);
        return;
    }
    loop {
        let mut stepped = 0;
        while stepped < WATCHDOG_STRIDE {
            match sim.next_event_time() {
                Some(t) if t <= until => {
                    sim.step();
                    stepped += 1;
                }
                // Horizon reached: clamp the clock like `run_until` does.
                _ => {
                    sim.run_until(until);
                    return;
                }
            }
        }
        crate::harness::check_caps(
            sim.now().saturating_since(SimTime::ZERO).as_nanos(),
            sim.events_processed(),
        );
    }
}

/// Debug-build hygiene check: once every flow has reached a terminal state,
/// drain any in-flight stragglers and assert nothing leaked (live timers,
/// busy links, queued packets). A no-op in release builds and whenever
/// flows were censored (they legitimately still own timers).
fn debug_check_hygiene(sim: &mut TransportSim, censored: usize) {
    if censored != 0 {
        return;
    }
    #[cfg(debug_assertions)]
    {
        sim.run_to_completion(10_000_000);
        sim.assert_drained();
    }
    #[cfg(not(debug_assertions))]
    let _ = sim;
}

/// A flow to launch: arrival time, payload bytes, scheme.
#[derive(Debug, Clone, Copy)]
pub struct FlowPlan {
    /// When the sender opens the connection.
    pub at: SimTime,
    /// Payload bytes.
    pub bytes: u64,
    /// Transmission scheme.
    pub protocol: Protocol,
}

/// Result of a dumbbell run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Completed flows (sender-side records), in completion order per host.
    pub records: Vec<FlowRecord>,
    /// Flows that gave up (max retransmissions / SYN timeout) instead of
    /// completing. Kept out of `records` so FCT statistics only ever see
    /// real completions.
    pub aborted: Vec<FlowRecord>,
    /// Flows started but unfinished at the end of the run.
    pub censored: usize,
    /// Packets dropped at the forward bottleneck queue.
    pub bottleneck_drops: u64,
    /// Bytes carried by the forward bottleneck.
    pub bottleneck_tx_bytes: u64,
    /// Virtual duration of the run.
    pub elapsed: SimDuration,
}

impl RunOutcome {
    /// Records for one scheme only (mixed-protocol runs).
    pub fn records_for(&self, protocol: Protocol) -> Vec<FlowRecord> {
        self.records
            .iter()
            .filter(|r| r.protocol == protocol.name())
            .cloned()
            .collect()
    }
}

/// Options for a dumbbell run.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Host pairs in the dumbbell (flows round-robin across pairs).
    pub host_pairs: usize,
    /// Extra virtual time after the last arrival for stragglers to finish.
    pub grace: SimDuration,
    /// Engine seed.
    pub seed: u64,
    /// Record receiver-side delivery traces with this bin width (Fig. 15).
    pub trace_bin_ns: Option<u64>,
    /// Override the minimum RTO on all sender hosts (sensitivity studies).
    pub min_rto: Option<SimDuration>,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            host_pairs: 12,
            grace: SimDuration::from_secs(30),
            seed: 1,
            trace_bin_ns: None,
            min_rto: None,
        }
    }
}

/// Everything built for a dumbbell run, pre-flight.
pub struct DumbbellRig {
    /// The simulator.
    pub sim: TransportSim,
    /// Topology ids.
    pub net: netsim::topology::Dumbbell,
    /// TCP-Cache store shared across flows.
    pub cache: PathCache,
    next_flow: u64,
    started: u64,
}

impl DumbbellRig {
    /// Build hosts and wire them into `spec`'s dumbbell.
    pub fn new(spec: &DumbbellSpec, opts: &RunOptions) -> DumbbellRig {
        let mut spec = spec.clone();
        spec.n_left = opts.host_pairs;
        spec.n_right = opts.host_pairs;
        let mut sim = TransportSim::new(opts.seed);
        let net = build_dumbbell(&mut sim, &spec, |_, _| Box::new(Host::new()));
        for i in 0..opts.host_pairs {
            let (h, e) = (net.left_hosts[i], net.left_egress[i]);
            sim.with_node_mut::<Host, _>(h, |host, _| {
                host.wire(h, e);
                host.min_rto = opts.min_rto;
            });
            let (h, e) = (net.right_hosts[i], net.right_egress[i]);
            sim.with_node_mut::<Host, _>(h, |host, _| {
                host.wire(h, e);
                if let Some(bin) = opts.trace_bin_ns {
                    host.timelines = Some(transport::trace::DeliveryTimelines::new(bin));
                }
            });
        }
        DumbbellRig {
            sim,
            net,
            cache: path_cache(),
            next_flow: 1,
            started: 0,
        }
    }

    /// Start a flow on host pair `pair` right now (the simulator clock must
    /// already be at the flow's arrival time).
    pub fn start_flow_now(&mut self, pair: usize, bytes: u64, protocol: Protocol) -> FlowId {
        let flow = FlowId(self.next_flow);
        self.next_flow += 1;
        self.started += 1;
        let src = self.net.left_hosts[pair % self.net.left_hosts.len()];
        let dst = self.net.right_hosts[pair % self.net.right_hosts.len()];
        let strategy = protocol.make(&self.cache, (src, dst));
        self.sim.with_node_mut::<Host, _>(src, |h, core| {
            h.start_flow(core, flow, dst, bytes, strategy)
        });
        flow
    }

    /// Collect the outcome after the run (credits the harness meter with
    /// the virtual time and events this simulation consumed).
    pub fn outcome(&mut self) -> RunOutcome {
        crate::harness::meter_add(
            self.sim.now().saturating_since(SimTime::ZERO).as_nanos(),
            self.sim.events_processed(),
        );
        let elapsed = self.sim.now().saturating_since(SimTime::ZERO);
        let mut records = Vec::new();
        let mut aborted = Vec::new();
        for &h in &self.net.left_hosts {
            for r in self.sim.node_as::<Host>(h).unwrap().completed() {
                if r.outcome.is_completed() {
                    records.push(r.clone());
                } else {
                    aborted.push(r.clone());
                }
            }
        }
        let qs = self.sim.queue_stats(self.net.bottleneck_lr);
        let ls = self.sim.link_stats(self.net.bottleneck_lr);
        let censored = self.started as usize - records.len() - aborted.len();
        debug_check_hygiene(&mut self.sim, censored);
        RunOutcome {
            censored,
            records,
            aborted,
            bottleneck_drops: qs.dropped,
            bottleneck_tx_bytes: ls.tx_bytes,
            elapsed,
        }
    }
}

/// Run a schedule of flows on a dumbbell and collect the outcome.
///
/// Flows round-robin across host pairs; after the last arrival the
/// simulation gets `opts.grace` of drain time, after which unfinished flows
/// count as censored.
pub fn run_dumbbell(spec: &DumbbellSpec, flows: &[FlowPlan], opts: &RunOptions) -> RunOutcome {
    let mut rig = DumbbellRig::new(spec, opts);
    let mut last = SimTime::ZERO;
    for (i, f) in flows.iter().enumerate() {
        debug_assert!(f.at >= last, "flows must be sorted by arrival");
        run_until_checked(&mut rig.sim, f.at);
        rig.start_flow_now(i, f.bytes, f.protocol);
        last = f.at;
    }
    run_until_checked(&mut rig.sim, last + opts.grace);
    rig.outcome()
}

/// Run `flows` sequentially-scheduled on one two-host path (PlanetLab and
/// home-network experiments). Returns completed records (a flow that can't
/// finish within `grace` after its start — or that aborts — counts toward
/// the censored/failed tally).
pub fn run_path(
    spec: &PathSpec,
    flows: &[FlowPlan],
    seed: u64,
    grace: SimDuration,
) -> (Vec<FlowRecord>, usize) {
    let mut sim = TransportSim::new(seed);
    let net = build_path(&mut sim, spec, |_| Box::new(Host::new()));
    sim.with_node_mut::<Host, _>(net.sender, |h, _| h.wire(net.sender, net.forward));
    sim.with_node_mut::<Host, _>(net.receiver, |h, _| h.wire(net.receiver, net.reverse));
    let cache = path_cache();
    let mut last = SimTime::ZERO;
    for (i, f) in flows.iter().enumerate() {
        run_until_checked(&mut sim, f.at);
        let strategy = f.protocol.make(&cache, (net.sender, net.receiver));
        let flow = FlowId(i as u64 + 1);
        sim.with_node_mut::<Host, _>(net.sender, |h, core| {
            h.start_flow(core, flow, net.receiver, f.bytes, strategy)
        });
        last = f.at;
    }
    run_until_checked(&mut sim, last + grace);
    crate::harness::meter_add(
        sim.now().saturating_since(SimTime::ZERO).as_nanos(),
        sim.events_processed(),
    );
    let host = sim.node_as::<Host>(net.sender).unwrap();
    let completed: Vec<FlowRecord> = host
        .completed()
        .iter()
        .filter(|r| r.outcome.is_completed())
        .cloned()
        .collect();
    let censored = flows.len() - host.completed().len();
    debug_check_hygiene(&mut sim, censored);
    let failed = flows.len() - completed.len();
    (completed, failed)
}

/// Helper: one flow, one path, default grace.
pub fn run_single_path_flow(
    spec: &PathSpec,
    protocol: Protocol,
    bytes: u64,
    seed: u64,
) -> Option<FlowRecord> {
    let (records, _) = run_path(
        spec,
        &[FlowPlan {
            at: SimTime::ZERO,
            bytes,
            protocol,
        }],
        seed,
        SimDuration::from_secs(120),
    );
    records.into_iter().next()
}

/// Convert a workload [`workload::Schedule`] into same-protocol flow plans.
pub fn plans_from_schedule(schedule: &workload::Schedule, protocol: Protocol) -> Vec<FlowPlan> {
    schedule
        .flows
        .iter()
        .map(|&(at, bytes)| FlowPlan {
            at,
            bytes,
            protocol,
        })
        .collect()
}

/// Assign protocols to a schedule alternately (for the Fig. 14 mixed runs):
/// even-indexed flows get `a`, odd-indexed get `b`.
pub fn plans_alternating(schedule: &workload::Schedule, a: Protocol, b: Protocol) -> Vec<FlowPlan> {
    schedule
        .flows
        .iter()
        .enumerate()
        .map(|(i, &(at, bytes))| FlowPlan {
            at,
            bytes,
            protocol: if i % 2 == 0 { a } else { b },
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::Schedule;

    #[test]
    fn run_dumbbell_completes_light_load() {
        let spec = DumbbellSpec::emulab(1);
        let horizon = SimTime::ZERO + SimDuration::from_secs(30);
        let schedule = Schedule::fixed_size(
            spec.bottleneck_rate,
            100_000,
            0.2,
            horizon,
            netsim::rng::SimRng::new(5),
        );
        let plans = plans_from_schedule(&schedule, Protocol::Halfback);
        let out = run_dumbbell(&spec, &plans, &RunOptions::default());
        assert!(
            out.records.len() >= plans.len() * 9 / 10,
            "most flows complete"
        );
        assert_eq!(out.censored, plans.len() - out.records.len());
        assert!(out.bottleneck_tx_bytes > 0);
    }

    #[test]
    fn mixed_protocols_are_attributed() {
        let spec = DumbbellSpec::emulab(1);
        let horizon = SimTime::ZERO + SimDuration::from_secs(20);
        let schedule = Schedule::fixed_size(
            spec.bottleneck_rate,
            100_000,
            0.2,
            horizon,
            netsim::rng::SimRng::new(6),
        );
        let plans = plans_alternating(&schedule, Protocol::Tcp, Protocol::Halfback);
        let out = run_dumbbell(&spec, &plans, &RunOptions::default());
        let tcp = out.records_for(Protocol::Tcp);
        let hb = out.records_for(Protocol::Halfback);
        assert!(!tcp.is_empty() && !hb.is_empty());
        assert_eq!(tcp.len() + hb.len(), out.records.len());
    }

    #[test]
    fn run_path_sequential_flows() {
        let spec = PathSpec::clean(netsim::Rate::from_mbps(50), SimDuration::from_millis(40));
        let flows: Vec<FlowPlan> = (0..3)
            .map(|i| FlowPlan {
                at: SimTime::ZERO + SimDuration::from_secs(i),
                bytes: 100_000,
                protocol: Protocol::Tcp,
            })
            .collect();
        let (records, censored) = run_path(&spec, &flows, 3, SimDuration::from_secs(60));
        assert_eq!(records.len(), 3);
        assert_eq!(censored, 0);
    }

    #[test]
    fn identical_seed_identical_outcome() {
        let spec = DumbbellSpec::emulab(1);
        let horizon = SimTime::ZERO + SimDuration::from_secs(10);
        let schedule = Schedule::fixed_size(
            spec.bottleneck_rate,
            100_000,
            0.5,
            horizon,
            netsim::rng::SimRng::new(8),
        );
        let plans = plans_from_schedule(&schedule, Protocol::JumpStart);
        let a = run_dumbbell(&spec, &plans, &RunOptions::default());
        let b = run_dumbbell(&spec, &plans, &RunOptions::default());
        assert_eq!(a.records.len(), b.records.len());
        let fa: Vec<u64> = a.records.iter().map(|r| r.fct.as_nanos()).collect();
        let fb: Vec<u64> = b.records.iter().map(|r| r.fct.as_nanos()).collect();
        assert_eq!(fa, fb);
    }
}
