//! The oracles: every invariant a run is judged by is one entry of
//! [`ORACLES`], with its stable name, the scope in which it holds, and a
//! check that reads one [`View`] of the run and returns one detail per
//! violation.
//!
//! [`Rig::audit`] runs the entries that hold at any instant, so an
//! open-loop run (weather, at every window close) is judged mid-run.
//! [`Rig::finish`] runs the deadline's entries, drains the run unless a
//! flow is censored, and then runs every other entry.
//!
//! **Order.** Violations are reported in table order, and within an entry
//! in the order its check finds them: the terminal oracle; the drain;
//! conservation and transport; then, over the senders' records pair by
//! pair, rto-sanity, delivery and fct-bound; then the differential. The
//! first violation is what the shrinker chases, what fails a figure's job
//! (`oracle <kind>: <detail>`) and what a battery prints as `FAILED
//! [kind]`.
//!
//! Checks are pure: they read the rig and the report and change neither.
//! The differential's two reference runs are fresh pristine chains that
//! are run and read, never judged, so it cannot recurse. Adding an oracle
//! is one entry here plus one entry of the simcheck tests' `MUTATIONS`: a
//! hand case and one corruption that makes exactly that oracle fire.

use super::{CaseReport, CaseSpec, FaultEvent, FaultKind, HopSpec, Leg, Rig, Selection, Topology};
use crate::harness::JobPanic;
use crate::protocols::Protocol;
use netsim::router::Router;
use netsim::{LinkId, SimDuration, SimTime};
use transport::wire::{flow_wire_bytes, segment_count};
use transport::{FlowRecord, MAX_RTO_RETRIES};

/// One oracle violation. `kind` is the stable oracle name the shrinker
/// reproduces against; `detail` is the human-readable diagnosis.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The [`Oracle::kind`] that fired, or the harness's `watchdog`/`panic`.
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

/// When an oracle holds, and so when it is judged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// At any instant: [`Rig::audit`] mid-run, [`Rig::finish`] at the end.
    Always,
    /// At the deadline, before the run drains.
    Deadline,
    /// Once the run has ended and, unless a flow is censored, drained.
    End,
}

/// What a check reads: the rig, which carries the spec and selection it
/// was built from, and the report as judged so far.
pub struct View<'a> {
    /// The run.
    pub rig: &'a Rig,
    /// Its report: counts, records and the verdicts of earlier entries.
    pub report: &'a CaseReport,
}

impl View<'_> {
    /// The report's records, each with the endpoint pair it ran on: the
    /// report lists them pair by pair, as the senders hold them.
    fn records(&self) -> impl Iterator<Item = (usize, &FlowRecord)> {
        let rig = self.rig;
        let held = rig
            .net
            .pairs
            .iter()
            .map(|&(s, _)| rig.host(s).completed().len());
        let pair_of = held
            .enumerate()
            .flat_map(|(pair, n)| std::iter::repeat_n(pair, n));
        pair_of.zip(&self.report.records)
    }
}

/// One invariant of every run.
pub struct Oracle {
    /// Its stable name: a violation's kind.
    pub kind: &'static str,
    /// When it holds.
    pub scope: Scope,
    /// The check: one detail per violation found.
    pub check: fn(&View<'_>) -> Vec<String>,
}

impl Oracle {
    const fn new(kind: &'static str, scope: Scope, check: fn(&View<'_>) -> Vec<String>) -> Self {
        Oracle { kind, scope, check }
    }
}

/// Every oracle, in report order. Each check's doc says what it catches.
pub const ORACLES: &[Oracle] = &[
    Oracle::new("terminal", Scope::Deadline, terminal),
    Oracle::new("drain", Scope::End, drain),
    Oracle::new("conservation", Scope::Always, conservation),
    Oracle::new("transport", Scope::Always, transport),
    Oracle::new("rto-sanity", Scope::End, rto_sanity),
    Oracle::new("delivery", Scope::End, delivery),
    Oracle::new("fct-bound", Scope::End, fct_bound),
    Oracle::new("differential", Scope::End, differential),
];

/// Run the entries whose scope `which` picks, in table order, appending
/// what they find to `report`.
pub(super) fn judge(rig: &Rig, report: &mut CaseReport, which: impl Fn(Scope) -> bool) {
    for oracle in ORACLES.iter().filter(|o| which(o.scope)) {
        let found = (oracle.check)(&View { rig, report });
        let kind = oracle.kind;
        let found = found.into_iter().map(|detail| Violation { kind, detail });
        report.violations.extend(found);
    }
}

/// The flows still running now, as `(stuck, censored)`: censored when a
/// flow's fct-bound floor does not fit between its start and now.
pub(super) fn census(rig: &Rig) -> (usize, usize) {
    let (now, slots) = (rig.sim.now(), rig.net.bottlenecks.len());
    let (mut stuck, mut censored) = (0, 0);
    for (pair, &(s, _)) in rig.net.pairs.iter().enumerate() {
        for conn in rig.host(s).senders() {
            let floor = fct_floor_ns(&rig.net.routes[pair], &rig.faults, slots, conn.bytes());
            let fits = floor <= now.saturating_since(conn.start_time()).as_nanos() as f64;
            *if fits { &mut stuck } else { &mut censored } += 1;
        }
    }
    (stuck, censored)
}

/// Store-and-forward FCT floor in nanoseconds: two times the propagation
/// along `route` there and back (handshake, then last byte out and final
/// ACK back) plus the flow's wire bytes at the route's slowest link. Fault
/// steps can *raise* a link's rate or *lower* its delay mid-run, so the
/// floor uses each bottleneck's best possible values under `faults`
/// (spread over `slots` bottlenecks).
pub(super) fn fct_floor_ns(route: &[Leg], faults: &[FaultEvent], slots: usize, bytes: u64) -> f64 {
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

/// Every flow is completed or aborted by the deadline. A flow still
/// running is *censored*, not a violation, only when its own fct-bound
/// floor does not fit between its start and the deadline.
fn terminal(v: &View<'_>) -> Vec<String> {
    let stuck = v.report.stuck;
    if stuck == 0 {
        return Vec::new();
    }
    let senders = v.rig.net.pairs.iter().map(|&(s, _)| v.rig.host(s));
    let starts = senders.flat_map(|h| {
        let done = h.completed().iter().map(|r| r.start);
        done.chain(h.senders().map(|c| c.start_time()))
    });
    let last = starts.fold(SimTime::ZERO, Ord::max);
    let after = v.rig.sim.now().saturating_since(last).as_secs_f64();
    vec![format!(
        "{stuck} flow(s) still not terminal {after}s after the last start"
    )]
}

/// Once every flow is terminal, the simulation drains clean: no live
/// timers, busy links or queued packets.
fn drain(v: &View<'_>) -> Vec<String> {
    // Only meaningful once everything was terminal and the run drained: an
    // unfinished flow legitimately still owns timers.
    let hygiene = v.rig.sim.hygiene_report();
    if v.report.stuck + v.report.censored > 0 || hygiene.is_clean() {
        return Vec::new();
    }
    vec![format!("simulation did not drain: {hygiene}")]
}

/// Per-link packet books balance: everything offered is dropped
/// (down-window, queue), serialized or still queued; everything
/// serialized (plus duplicates) is lost on the wire, blackholed, dropped
/// as corrupt, delivered or still propagating; and the links hold in
/// flight exactly the packets the engine's arena holds. Exact mid-run,
/// CoDel's dequeue drops included.
fn conservation(v: &View<'_>) -> Vec<String> {
    let sim = &v.rig.sim;
    let mut found = Vec::new();
    // What a link still holds is in flight, and the arena must hold
    // exactly that (nothing, once drained).
    let mut in_flight = 0i64;
    for l in 0..sim.link_count() {
        let link = LinkId(l as u32);
        let (s, q) = (sim.link_stats(link), sim.queue_stats(link));
        let queued = s.offered as i64 - (s.down_dropped + q.dropped + s.tx_packets) as i64;
        let propagating = (s.tx_packets + s.duplicated) as i64
            - (s.wire_lost + s.blackholed + s.corrupt_dropped + s.delivered) as i64;
        if queued < 0 || propagating < 0 {
            found.push(format!(
                "link {l}: more out than in: offered {}, down-dropped {}, queue-dropped {}, \
                 tx {}, dup {}, wire-lost {}, blackholed {}, corrupt {}, delivered {}",
                s.offered,
                s.down_dropped,
                q.dropped,
                s.tx_packets,
                s.duplicated,
                s.wire_lost,
                s.blackholed,
                s.corrupt_dropped,
                s.delivered
            ));
        }
        in_flight += queued + propagating;
    }
    if in_flight != sim.live_packets() as i64 {
        found.push(format!(
            "the links hold {in_flight} packet(s) in flight, the arena {}",
            sim.live_packets()
        ));
    }
    found
}

/// No receiver accounts ghost bytes and no cumulative ACK moves
/// backwards or past the flow end (both checked live by every `Host`),
/// no packet goes stray, no router meets an unroutable one.
fn transport(v: &View<'_>) -> Vec<String> {
    let rig = v.rig;
    let mut found = Vec::new();
    for node in rig.net.pairs.iter().flat_map(|&(s, r)| [s, r]) {
        let host = rig.host(node);
        let strays =
            (host.stray_packets > 0).then(|| format!("{} stray packet(s)", host.stray_packets));
        for b in host.invariant_breaches().iter().cloned().chain(strays) {
            found.push(format!("host {}: {b}", node.0));
        }
    }
    for &r in &rig.net.routers {
        let unroutable = rig.sim.node_as::<Router>(r).unwrap().unroutable();
        if unroutable > 0 {
            found.push(format!("router {}: {unroutable} unroutable packet(s)", r.0));
        }
    }
    found
}

/// The bounded half of rto-sanity: a flow that times out more often than
/// its length allows. A long flow behind a deep queue may time out many
/// times and be healthy, one segment further along each time.
pub(super) fn rto_excess(rec: &FlowRecord) -> Option<String> {
    let bound = (MAX_RTO_RETRIES as u64 + 1) * segment_count(rec.bytes) as u64;
    (rec.counters.rto_events > bound).then(|| {
        format!(
            "flow {}: {} RTO events, more than {bound} for its {} bytes",
            rec.flow, rec.counters.rto_events, rec.bytes
        )
    })
}

/// A flow's RTO count is bounded by its length: every RTO either follows
/// cumulative progress, at most one piece per segment, or counts towards
/// the `MAX_RTO_RETRIES` a sender allows itself without any. Its pristine
/// variant: the one flow of a pristine chain (loss-free, fault-free,
/// buffered above the first-RTT blast) sees no RTO at all. That variant
/// caught PCP's probe trains reading a bottleneck above ~48 Mbps as
/// uncongested, so PCP doubled past it and its tail needed an RTO.
fn rto_sanity(v: &View<'_>) -> Vec<String> {
    let pristine_single = v.rig.pristine && v.rig.flows_started() == 1;
    let mut found = Vec::new();
    for rec in &v.report.records {
        found.extend(rto_excess(rec));
        let rtos = rec.counters.rto_events;
        if pristine_single && rec.outcome.is_completed() && rtos > 0 {
            found.push(format!(
                "flow {}: {rtos} RTO event(s) on a pristine single-flow case",
                rec.flow
            ));
        }
    }
    found
}

/// A flow the sender reports complete was delivered in full by the
/// receiver; and no flow aborts on a pristine chain.
fn delivery(v: &View<'_>) -> Vec<String> {
    let mut found = Vec::new();
    for (pair, rec) in v.records() {
        let flow = rec.flow;
        if rec.outcome.is_completed() {
            let receiver = v.rig.host(v.rig.net.pairs[pair].1).receiver(flow);
            let got = receiver.map(|rc| (rc.delivered_bytes, rc.complete_at.is_some()));
            if got != Some((rec.bytes, true)) {
                found.push(format!(
                    "flow {flow}: sender reports completion of {} bytes, receiver has \
                     (bytes, complete) {got:?}",
                    rec.bytes
                ));
            }
        } else if v.rig.pristine {
            found.push(format!("flow {flow}: aborted on a pristine case"));
        }
    }
    found
}

/// No completion time beats the store-and-forward floor: two times the
/// propagation along the flow's route there and back, plus its wire
/// bytes at the route's slowest link, at the best rates and delays the
/// case's fault steps allow.
fn fct_bound(v: &View<'_>) -> Vec<String> {
    let (rig, slots) = (v.rig, v.rig.net.bottlenecks.len());
    let completed = v.records().filter(|(_, rec)| rec.outcome.is_completed());
    completed
        .filter_map(|(pair, rec)| {
            let floor = fct_floor_ns(&rig.net.routes[pair], &rig.faults, slots, rec.bytes);
            let fct = rec.fct.as_nanos() as f64;
            (fct < floor * 0.99).then(|| {
                format!(
                    "flow {}: FCT {:.3}ms beats the store-and-forward floor {:.3}ms",
                    rec.flow,
                    fct / 1e6,
                    floor / 1e6
                )
            })
        })
        .collect()
}

/// The paper's headline claim as an invariant: on a pristine chain's one
/// RTT-dominated short flow, Halfback does not lose to TCP beyond a
/// small tolerance. Serialization-dominated or large flows are excluded:
/// there the proactive tail legitimately costs extra serialization.
fn differential(v: &View<'_>) -> Vec<String> {
    let (rig, sel) = (v.rig, &v.rig.sel);
    let hops = match rig.spec.topology.chain(sel.hops) {
        Some(hops) if rig.pristine && sel.flows.len() == 1 => hops,
        _ => return Vec::new(),
    };
    let bytes = rig.spec.flows[sel.flows[0]].bytes.min(100_000);
    let rtt_ns = 2.0 * hops.iter().map(|h| h.delay_ms as f64 * 1e6).sum::<f64>();
    let bottleneck = hops.iter().map(|h| h.rate_mbps).min().unwrap() as f64;
    if flow_wire_bytes(bytes) as f64 * 8_000.0 / bottleneck > rtt_ns {
        return Vec::new();
    }
    let seed = rig.spec.engine_seed;
    let hb = reference_fct_ns(seed, hops, Protocol::Halfback, bytes);
    let tcp = reference_fct_ns(seed, hops, Protocol::Tcp, bytes);
    match (hb, tcp) {
        (Some(hb), Some(tcp)) if hb as f64 > tcp as f64 * 1.10 + 10e6 => vec![format!(
            "Halfback FCT {:.3}ms > TCP {:.3}ms on a clean RTT-dominated path ({bytes} bytes)",
            hb as f64 / 1e6,
            tcp as f64 / 1e6
        )],
        (Some(_), Some(_)) => Vec::new(),
        _ => vec![format!(
            "a clean-path reference flow failed to complete (halfback: {}, tcp: {})",
            hb.is_some(),
            tcp.is_some()
        )],
    }
}

/// FCT in nanoseconds of a single clean flow of `protocol` over `hops`
/// (None if it did not complete — itself a bug on a clean path). The run
/// is credited to the job meter but never judged.
fn reference_fct_ns(seed: u64, hops: &[HopSpec], protocol: Protocol, bytes: u64) -> Option<u64> {
    let chain = Topology::Chain(hops.to_vec());
    let case = CaseSpec::single(seed, chain, protocol, bytes, SimDuration::from_secs(240));
    let mut rig = Rig::new(&case, &Selection::full(&case), false);
    rig.play();
    rig.credit_meter();
    let sender = rig.host(rig.pairs()[0].0);
    let done = sender.completed().iter().find(|r| r.outcome.is_completed());
    done.map(|r| r.fct.as_nanos())
}
