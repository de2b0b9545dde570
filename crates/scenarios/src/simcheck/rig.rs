//! The one runner: a case built into a [`Rig`], its flows started on
//! schedule, the run advanced under the job watchdog and ended by
//! [`Rig::finish`], which judges it with every oracle.

use super::oracle::{census, judge, Scope};
use super::{CaseSpec, FaultEvent, FaultKind, HopSpec, Selection, Topology, Violation};
use crate::harness;
use crate::protocols::Protocol;
use crate::trace::Streams;
use baselines::{path_cache, PathCache};
use netsim::engine::TraceEvent;
use netsim::link::{LinkSpec, LinkStats};
use netsim::loss::LossModel;
use netsim::router::Router;
use netsim::snap::{SnapError, SnapReader, SnapWriter};
use netsim::topology::{build_dumbbell, build_parking_lot, build_path, ParkingLotSpec, PathSpec};
use netsim::{FaultSpec, FlowId, LinkId, Node, NodeId, Rate, SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;
use transport::trace::DeliveryTimelines;
use transport::{FlowRecord, Header, Host, TransportSim};

/// Reverse (ACK-path) links get at least this much buffer so pure-ACK
/// congestion never confounds a forward-path oracle.
const REVERSE_BUFFER_FLOOR: u64 = 96_000;

/// Forward buffers at least this large make a case eligible for the
/// pristine oracles (Halfback's full first-RTT blast fits without loss).
const PRISTINE_BUFFER_BYTES: u64 = 150_000;

/// Everything one case execution produces.
#[derive(Debug, Default)]
pub struct CaseReport {
    /// Oracle violations in deterministic check order (empty = case ok).
    pub violations: Vec<Violation>,
    /// Flows that completed.
    pub completed: usize,
    /// Flows that gave up.
    pub aborted: usize,
    /// Flows running at the deadline whose fct-bound floor did not fit.
    pub censored: usize,
    /// Flows running at the deadline whose floor fit: the terminal oracle.
    pub stuck: usize,
    /// The senders' records of every terminal flow, pair by pair.
    pub records: Vec<FlowRecord>,
    /// Stats of the forward bottleneck links, in [`FaultEvent::hop`] order.
    pub bottlenecks: Vec<LinkStats>,
    /// Queue drops summed over every link.
    pub queue_drops: u64,
    /// [`LinkStats::lost_total`] summed over every link.
    pub link_lost: u64,
    /// The raw flight-recorder streams (empty unless recording).
    pub streams: Streams,
}

impl CaseReport {
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
pub(super) struct Leg {
    pub(super) bps: f64,
    pub(super) delay_ns: f64,
    pub(super) slot: Option<usize>,
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
pub(super) struct Net {
    /// `(sender, receiver)` of every endpoint pair.
    pub(super) pairs: Vec<(NodeId, NodeId)>,
    /// The route of every pair, there and back.
    pub(super) routes: Vec<Vec<Leg>>,
    pub(super) routers: Vec<NodeId>,
    /// Forward bottleneck links, in [`FaultEvent::hop`] order.
    pub(super) bottlenecks: Vec<LinkId>,
}

/// Point a host at its egress link.
fn wire_host(sim: &mut TransportSim, host: NodeId, egress: LinkId) {
    sim.node_as_mut::<Host>(host).unwrap().wire(host, egress);
}

/// Build `topology` (a chain cut to its first `hops` hops) with hosts from
/// `host`, and wire every host to its egress link.
pub(super) fn build(
    sim: &mut TransportSim,
    topology: &Topology,
    hops: usize,
    mut host: impl FnMut() -> Box<dyn Node<Header>>,
) -> Net {
    match topology {
        Topology::Chain(_) => {
            let hops = topology.chain(hops).unwrap();
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
                let (a, b) = (chain[i], chain[i + 1]);
                let forward = LinkSpec::drop_tail(a, b, rate, delay, h.buffer_bytes);
                fwd.push(sim.add_link(forward.with_loss(h.loss.clone())));
                let reverse_buffer = h.buffer_bytes.max(REVERSE_BUFFER_FLOOR);
                rev.push(sim.add_link(LinkSpec::drop_tail(b, a, rate, delay, reverse_buffer)));
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
            let (delays, rates) = (&spec.faults.delay_steps, &spec.faults.rate_steps);
            let delay = delays.iter().map(|s| s.1).fold(one_way, Ord::min);
            let rate = rates.iter().map(|s| s.1).fold(spec.rate, Ord::max);
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

/// The wire tracer's events, shared with the tracer closure.
type WireLog = Rc<RefCell<Vec<(u64, TraceEvent)>>>;

/// One run of a case: its topology built into a simulator. [`Rig::play`]
/// drives it from the case's schedule; a figure that starts flows from
/// inside the run drives it directly and ends with [`Rig::finish`]. It holds
/// nothing per flow: the hosts know which flows run and which finished.
pub struct Rig {
    /// The simulator.
    pub sim: TransportSim,
    pub(super) net: Net,
    /// The case it was built from, and the selection it was cut to.
    pub(super) spec: CaseSpec,
    pub(super) sel: Selection,
    /// The selected fault events.
    pub(super) faults: Vec<FaultEvent>,
    /// A loss-free, fault-free chain buffered above the first-RTT blast:
    /// the pristine-only oracles apply.
    pub(super) pristine: bool,
    cache: PathCache,
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

        let clean = |h: &HopSpec| {
            matches!(h.loss, LossModel::None) && h.buffer_bytes >= PRISTINE_BUFFER_BYTES
        };
        let chain = spec.topology.chain(sel.hops);
        let pristine = faults.is_empty() && chain.is_some_and(|hops| hops.iter().all(clean));
        Rig {
            sim,
            net,
            spec: spec.clone(),
            sel: sel.clone(),
            faults,
            pristine,
            cache: path_cache(),
            wire,
        }
    }

    pub(super) fn host(&self, node: NodeId) -> &Host {
        self.sim.node_as::<Host>(node).unwrap()
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
    }

    /// Start the selected flows on schedule (flow ids are 1 + original
    /// index, so a shrunk case keeps its flow identities) and run to the
    /// case's horizon after the last start.
    pub fn play(&mut self) {
        let mut last = SimTime::ZERO;
        for i in 0..self.sel.flows.len() {
            let fi = self.sel.flows[i];
            let f = self.spec.flows[fi];
            let at = SimTime::ZERO + SimDuration::from_nanos(f.at_ns);
            self.run_until(at);
            self.start(FlowId(fi as u64 + 1), f.pair, f.bytes, f.protocol);
            last = at;
        }
        self.run_until(last + self.spec.horizon);
    }

    /// Advance to `until` under the job's watchdog: each time the
    /// simulation's event count reaches a multiple of `WATCHDOG_STRIDE` the
    /// job's virtual-time/event caps are checked, so a livelocked
    /// simulation panics (isolated per job by the harness) instead of
    /// hanging the sweep. The stride counts across calls, so a run cut into
    /// many short advances is checked as often as one long advance. It
    /// fires the events `Simulator::run_until` would; with the caps disabled
    /// the check between strides does nothing.
    pub fn run_until(&mut self, until: SimTime) {
        const WATCHDOG_STRIDE: u64 = 4096;
        let sim = &mut self.sim;
        while !sim.run_until_budget(
            until,
            WATCHDOG_STRIDE - sim.events_processed() % WATCHDOG_STRIDE,
        ) {
            harness::check_caps(
                sim.now().saturating_since(SimTime::ZERO).as_nanos(),
                sim.events_processed(),
            );
        }
    }

    /// Write what a kill loses into `w`: the engine, every pair's two hosts
    /// in pair order, and the TCP-Cache path table.
    pub fn save(&mut self, w: &mut SnapWriter) {
        self.sim.save_snapshot(w);
        for h in self.net.pairs.iter().flat_map(|&(s, r)| [s, r]) {
            self.host(h).save(w);
        }
        w.put(&*self.cache.borrow());
    }

    /// A fresh build of `spec` under `sel` with the state [`Rig::save`]
    /// wrote overlaid from `r`. Each in-flight sender gets a new strategy
    /// of `protocol_of(flow)`, keyed by the pair it is loaded on.
    pub fn restore(
        spec: &CaseSpec,
        sel: &Selection,
        r: &mut SnapReader<'_>,
        protocol_of: impl Fn(FlowId) -> Protocol,
    ) -> Result<Rig, SnapError> {
        let mut rig = Rig::new(spec, sel, false);
        rig.sim.restore_snapshot(r)?;
        for &(s, d) in &rig.net.pairs {
            let cache = &rig.cache;
            let mut strategy = |flow| protocol_of(flow).make(cache, (s, d));
            for h in [s, d] {
                let host = rig.sim.node_as_mut::<Host>(h).unwrap();
                host.load(r, &mut strategy)?;
            }
        }
        // In place: the strategies restored above already share this handle.
        *rig.cache.borrow_mut() = r.get()?;
        Ok(rig)
    }

    /// Judge what the network and the hosts hold right now into `report`,
    /// with the oracles that hold at any instant, after reading the
    /// bottlenecks' stats, queue drops and link losses into it. An open-loop
    /// run can call it mid-run.
    pub fn audit(&self, report: &mut CaseReport) {
        self.observe(report);
        judge(self, report, |scope| scope == Scope::Always);
    }

    /// Read the links' figures into `report`.
    fn observe(&self, report: &mut CaseReport) {
        let sim = &self.sim;
        let links = (0..sim.link_count()).map(|l| LinkId(l as u32));
        report.queue_drops = links.clone().map(|l| sim.queue_stats(l).dropped).sum();
        report.link_lost = links.map(|l| sim.link_stats(l).lost_total()).sum();
        let bottlenecks = self.net.bottlenecks.iter();
        report.bottlenecks = bottlenecks.map(|&l| sim.link_stats(l)).collect();
    }

    /// Credit the job meter with the run so far.
    pub(super) fn credit_meter(&self) {
        let now = self.sim.now().saturating_since(SimTime::ZERO);
        harness::meter_add(now.as_nanos(), self.sim.events_processed());
    }

    /// Flows started on the rig: its senders' records and live connections.
    pub(super) fn flows_started(&self) -> usize {
        let senders = self.net.pairs.iter().map(|&(s, _)| self.host(s));
        senders
            .map(|h| h.completed().len() + h.active_senders())
            .sum()
    }

    /// End the run at the current instant, its deadline: credit the job
    /// meter with it, judge the deadline's oracles, drain the simulation
    /// unless a censored flow still runs, collect the senders' records and
    /// judge with every other oracle. The senders must retain their
    /// records: the flows a rig ran are its hosts' records plus their live
    /// senders.
    pub fn finish(&mut self) -> CaseReport {
        self.credit_meter();
        let mut report = CaseReport::default();
        (report.stuck, report.censored) = census(self);
        judge(self, &mut report, |scope| scope == Scope::Deadline);
        if report.censored == 0 {
            self.sim.run_to_completion(50_000_000);
        }
        self.observe(&mut report);
        for &(s, _) in &self.net.pairs {
            report.records.extend_from_slice(self.host(s).completed());
        }
        let records = report.records.iter();
        report.completed = records.filter(|r| r.outcome.is_completed()).count();
        report.aborted = report.records.len() - report.completed;
        judge(self, &mut report, |scope| scope != Scope::Deadline);

        if let Some(wire) = &self.wire {
            let events = |n| self.host(n).recorder().into_iter().flat_map(|r| r.events());
            let pairs = &self.net.pairs;
            report.streams = Streams {
                wire: wire.take(),
                snd: pairs.iter().flat_map(|p| events(p.0)).copied().collect(),
                rcv: pairs.iter().flat_map(|p| events(p.1)).copied().collect(),
            };
        }
        report
    }
}

/// Build `spec` restricted to `sel`, play its schedule and finish: the run
/// every case and figure goes through, judged by every oracle.
pub fn run_case(spec: &CaseSpec, sel: &Selection, record_trace: bool) -> CaseReport {
    let mut rig = Rig::new(spec, sel, record_trace);
    rig.play();
    rig.finish()
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
