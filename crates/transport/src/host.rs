//! A host: a simulator node holding transport endpoints.
//!
//! Each host has one egress link (toward its router or path). Sender
//! endpoints are created by the experiment harness via [`Host::start_flow`];
//! receiver endpoints are created automatically when a SYN arrives.
//! Completed-flow records accumulate on the host and, optionally, on a
//! shared completion bus the harness drains while stepping the simulator
//! (the web-workload driver reacts to completions in virtual time).

use crate::fasthash::FastMap;
use crate::receiver::ReceiverConn;
use crate::sender::{AbortReason, FlowOutcome, FlowRecord, SenderConn, TimerKind};
use crate::strategy::Strategy;
use crate::trace::{DeliveryTimelines, FlightRecorder, FlowEvent};
use crate::wire::Header;
use netsim::engine::EngineCore;
use netsim::node::{Node, TimerId};
use netsim::snap::{SnapError, SnapReader, SnapWriter};
use netsim::{Ctx, FlowId, LinkId, NodeId, Packet, SimTime};
use std::any::Any;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// A queue of completed-flow records shared between hosts and the harness.
pub type CompletionBus = Rc<RefCell<VecDeque<FlowRecord>>>;

/// Create an empty completion bus.
pub fn completion_bus() -> CompletionBus {
    Rc::new(RefCell::new(VecDeque::new()))
}

/// Host bookkeeping shared with sender endpoints during dispatch: timer
/// token routing and completion collection.
pub struct HostCore {
    /// This host's node id.
    pub node: NodeId,
    /// This host's egress link.
    pub egress: LinkId,
    next_token: u64,
    routes: FastMap<u64, (FlowId, TimerKind)>,
    /// Records of flows that completed with this host as sender. Only
    /// populated while `retain_records` is set; open-loop service runs
    /// turn retention off and consume records from the bus instead, so
    /// memory stays bounded over millions of flows.
    pub completed: Vec<FlowRecord>,
    /// Whether `completed` accumulates records (default true). See
    /// [`Host::set_retain_records`].
    pub retain_records: bool,
    /// Debug census: timer arms by kind [Rto, Pace, Pto, User].
    pub timer_arms: [u64; 4],
    /// Debug census: timer cancels routed through endpoints.
    pub timer_cancels: u64,
    /// Optional shared completion queue drained by the harness.
    pub bus: Option<CompletionBus>,
    /// Optional flight recorder capturing transport-level trace events for
    /// every flow endpoint on this host. `None` (the default) keeps every
    /// emission site a branch on a cold `Option` — zero-cost tracing.
    pub recorder: Option<FlightRecorder>,
}

impl HostCore {
    /// Record a transport event if a flight recorder is installed.
    #[inline]
    pub(crate) fn record(&mut self, at: SimTime, flow: FlowId, event: FlowEvent) {
        if let Some(rec) = &mut self.recorder {
            rec.record(at, flow, event);
        }
    }

    pub(crate) fn alloc_token(&mut self, flow: FlowId, kind: TimerKind) -> u64 {
        let t = self.next_token;
        self.next_token += 1;
        self.timer_arms[match kind {
            TimerKind::Rto => 0,
            TimerKind::Pace => 1,
            TimerKind::Pto => 2,
            TimerKind::User(_) => 3,
        }] += 1;
        self.routes.insert(t, (flow, kind));
        t
    }

    pub(crate) fn drop_token(&mut self, token: u64) {
        self.timer_cancels += 1;
        self.routes.remove(&token);
    }

    pub(crate) fn route(&mut self, token: u64) -> Option<(FlowId, TimerKind)> {
        self.routes.remove(&token)
    }

    pub(crate) fn flow_done(&mut self, record: FlowRecord) {
        if let Some(bus) = &self.bus {
            bus.borrow_mut().push_back(record.clone());
        }
        if self.retain_records {
            self.completed.push(record);
        }
    }
}

/// A simulator node hosting transport senders and receivers.
pub struct Host {
    core: HostCore,
    senders: FastMap<FlowId, SenderConn>,
    receivers: FastMap<FlowId, ReceiverConn>,
    /// When set, receiver endpoints record delivered bytes into per-flow
    /// timelines (the Fig. 15 throughput traces). The final partial bin is
    /// closed at the flow-completion instant.
    pub timelines: Option<DeliveryTimelines>,
    /// Override the RFC 6298 1 s minimum RTO for flows started on this host
    /// (sensitivity studies; `None` = standard).
    pub min_rto: Option<netsim::SimDuration>,
    /// When true, receiver endpoints keep a per-packet arrival log (the
    /// Fig. 3 timeline view). Off by default — it stores every arrival.
    pub log_arrivals: bool,
    /// Data packets that arrived for unknown flows (should stay zero).
    pub stray_packets: u64,
    /// When true, every ACK and data delivery is checked against the
    /// transport invariants (cumulative-ACK monotonicity, no ghost bytes)
    /// and violations accumulate in `invariant_breaches`. Off by default so
    /// the packet hot path pays only a cold branch.
    pub check_invariants: bool,
    invariant_breaches: Vec<String>,
}

/// Cap on recorded breach messages per host: one is enough to fail a case,
/// a handful aids debugging, unbounded growth could swamp a broken run.
const MAX_BREACHES: usize = 16;

impl Host {
    /// Create a host. `node` and `egress` may be placeholders fixed later
    /// with [`Host::wire`] once the topology assigns ids.
    pub fn new() -> Self {
        Host {
            core: HostCore {
                node: NodeId(u32::MAX),
                egress: LinkId(u32::MAX),
                next_token: 0,
                routes: FastMap::default(),
                completed: Vec::new(),
                retain_records: true,
                timer_arms: [0; 4],
                timer_cancels: 0,
                bus: None,
                recorder: None,
            },
            senders: FastMap::default(),
            receivers: FastMap::default(),
            timelines: None,
            min_rto: None,
            log_arrivals: false,
            stray_packets: 0,
            check_invariants: false,
            invariant_breaches: Vec::new(),
        }
    }

    /// Transport-invariant violations observed so far (empty unless
    /// `check_invariants` is set and something is genuinely broken).
    pub fn invariant_breaches(&self) -> &[String] {
        &self.invariant_breaches
    }

    fn breach(&mut self, msg: String) {
        if self.invariant_breaches.len() < MAX_BREACHES {
            self.invariant_breaches.push(msg);
        }
    }

    /// Assign the node id and egress link (after topology construction).
    pub fn wire(&mut self, node: NodeId, egress: LinkId) {
        self.core.node = node;
        self.core.egress = egress;
    }

    /// Attach a completion bus.
    pub fn set_bus(&mut self, bus: CompletionBus) {
        self.core.bus = Some(bus);
    }

    /// Control whether completed-flow records accumulate on the host
    /// (default true). Open-loop service runs set this false and read
    /// completions from the bus only, keeping host memory bounded no
    /// matter how many flows pass through.
    pub fn set_retain_records(&mut self, retain: bool) {
        self.core.retain_records = retain;
    }

    /// Drop receiver endpoints whose flow completed before `before`,
    /// returning how many were reaped. Receivers are created on SYN arrival
    /// and otherwise live forever; long service runs must reap them
    /// periodically or memory grows with total flow count. `before` should
    /// trail virtual now by comfortably more than the sender's worst-case
    /// give-up time (~63 s of SYN/RTO backoff), so a late retransmit never
    /// finds its receiver missing.
    pub fn reap_receivers(&mut self, before: SimTime) -> usize {
        let n = self.receivers.len();
        self.receivers
            .retain(|_, c| c.complete_at.is_none_or(|t| t >= before));
        n - self.receivers.len()
    }

    /// Install a flight recorder holding at most `cap` events.
    pub fn enable_recorder(&mut self, cap: usize) {
        self.core.recorder = Some(FlightRecorder::new(cap));
    }

    /// The installed flight recorder, if any.
    pub fn recorder(&self) -> Option<&FlightRecorder> {
        self.core.recorder.as_ref()
    }

    /// Records of flows completed with this host as the sender.
    pub fn completed(&self) -> &[FlowRecord] {
        &self.core.completed
    }

    /// Debug: (timer arms by kind [Rto, Pace, Pto, User], cancels) and the
    /// number of timer-route entries still alive.
    pub fn timer_census(&self) -> ([u64; 4], u64, usize) {
        (
            self.core.timer_arms,
            self.core.timer_cancels,
            self.core.routes.len(),
        )
    }

    /// Receiver-side connection state for a flow, if any.
    pub fn receiver(&self, flow: FlowId) -> Option<&ReceiverConn> {
        self.receivers.get(&flow)
    }

    /// All receiver connections.
    pub fn receivers(&self) -> impl Iterator<Item = &ReceiverConn> {
        self.receivers.values()
    }

    /// Sender connection for a flow still in progress, if any.
    pub fn sender(&self, flow: FlowId) -> Option<&SenderConn> {
        self.senders.get(&flow)
    }

    /// All in-progress sender connections.
    pub fn senders(&self) -> impl Iterator<Item = &SenderConn> {
        self.senders.values()
    }

    /// Number of in-progress sender flows.
    pub fn active_senders(&self) -> usize {
        self.senders.len()
    }

    /// Start a flow from this host to `dst`. Call via
    /// `Simulator::with_node_mut` so the engine core is available.
    pub fn start_flow(
        &mut self,
        core: &mut EngineCore<Header>,
        flow: FlowId,
        dst: NodeId,
        bytes: u64,
        strategy: Box<dyn Strategy>,
    ) {
        assert!(
            self.core.node != NodeId(u32::MAX),
            "host must be wired to the topology before starting flows"
        );
        assert!(
            !self.senders.contains_key(&flow),
            "duplicate flow id {flow}"
        );
        let mut conn =
            SenderConn::new(flow, self.core.node, dst, self.core.egress, bytes, strategy);
        if let Some(floor) = self.min_rto {
            conn.set_min_rto(floor);
        }
        conn.start(&mut self.core, core);
        self.senders.insert(flow, conn);
    }

    fn dispatch_sender<F>(&mut self, flow: FlowId, ctx: &mut Ctx<'_, Header>, f: F)
    where
        F: FnOnce(&mut SenderConn, &mut HostCore, &mut Ctx<'_, Header>),
    {
        // In place (`senders` and `core` are disjoint fields): a connection
        // is ~0.5 KB, too much to move out of the map and back per ACK.
        if let Some(conn) = self.senders.get_mut(&flow) {
            f(conn, &mut self.core, ctx);
            if conn.is_done() {
                self.senders.remove(&flow);
            }
        }
    }
}

impl Default for Host {
    fn default() -> Self {
        Self::new()
    }
}

/// Section magic guarding a serialized host in a checkpoint stream.
const SEC_HOST: u32 = 0x4842_0003;

/// Intern a deserialized protocol name. [`FlowRecord::protocol`] is a
/// `&'static str` in the live system (strategy names are literals); a
/// checkpoint brings them back as owned strings, which we leak at most
/// once per distinct name — bounded by the number of schemes, not flows.
fn intern_name(s: String) -> &'static str {
    use std::sync::{Mutex, OnceLock};
    static CACHE: OnceLock<Mutex<Vec<&'static str>>> = OnceLock::new();
    let mut cache = CACHE.get_or_init(|| Mutex::new(Vec::new())).lock().unwrap();
    if let Some(&n) = cache.iter().find(|&&n| n == s) {
        return n;
    }
    let n: &'static str = Box::leak(s.into_boxed_str());
    cache.push(n);
    n
}

fn write_record(w: &mut SnapWriter, rec: &FlowRecord) {
    w.u64(rec.flow.0);
    w.str(rec.protocol);
    w.u64(rec.bytes);
    w.u64(rec.start.as_nanos());
    w.u64(rec.established_at.as_nanos());
    w.u64(rec.done_at.as_nanos());
    w.u64(rec.fct.as_nanos());
    rec.counters.save(w);
    w.bool(rec.min_rtt.is_some());
    w.u64(rec.min_rtt.map_or(0, |d| d.as_nanos()));
    w.u8(match rec.outcome {
        FlowOutcome::Completed => 0,
        FlowOutcome::Aborted(AbortReason::MaxRetransmits) => 1,
        FlowOutcome::Aborted(AbortReason::SynTimeout) => 2,
    });
}

fn read_record(r: &mut SnapReader<'_>) -> Result<FlowRecord, SnapError> {
    let flow = FlowId(r.u64()?);
    let protocol = intern_name(r.str()?);
    let bytes = r.u64()?;
    let start = SimTime::from_nanos(r.u64()?);
    let established_at = SimTime::from_nanos(r.u64()?);
    let done_at = SimTime::from_nanos(r.u64()?);
    let fct = netsim::SimDuration::from_nanos(r.u64()?);
    let counters = crate::sender::Counters::load(r)?;
    let has_min = r.bool()?;
    let min_ns = r.u64()?;
    let outcome = match r.u8()? {
        0 => FlowOutcome::Completed,
        1 => FlowOutcome::Aborted(AbortReason::MaxRetransmits),
        2 => FlowOutcome::Aborted(AbortReason::SynTimeout),
        tag => {
            return Err(SnapError::Tag {
                ty: "FlowOutcome",
                tag,
            })
        }
    };
    Ok(FlowRecord {
        flow,
        protocol,
        bytes,
        start,
        established_at,
        done_at,
        fct,
        counters,
        min_rtt: has_min.then(|| netsim::SimDuration::from_nanos(min_ns)),
        outcome,
    })
}

impl Host {
    /// Serialize every dynamic field of this host — live sender and
    /// receiver endpoints, timer-token routing, retained completion
    /// records, debug counters — into the checkpoint codec.
    ///
    /// Configuration knobs (`min_rto`, `log_arrivals`, `check_invariants`,
    /// record retention, the bus, timelines, the flight recorder) are NOT
    /// serialized: a restored host is rebuilt from the run configuration
    /// first, exactly like link structure on the engine side, and only the
    /// dynamic state is overlaid. Flight-recorder and timeline contents are
    /// diagnostics and do not survive a checkpoint.
    pub fn save(&self, w: &mut SnapWriter) {
        w.u32(SEC_HOST);
        w.u32(self.core.node.0);
        w.u32(self.core.egress.0);
        w.u64(self.core.next_token);
        let mut tokens: Vec<u64> = self.core.routes.keys().copied().collect();
        tokens.sort_unstable();
        w.usize(tokens.len());
        for t in tokens {
            let (flow, kind) = self.core.routes[&t];
            w.u64(t);
            w.u64(flow.0);
            let (tag, user) = match kind {
                TimerKind::Rto => (0u8, 0u64),
                TimerKind::Pace => (1, 0),
                TimerKind::Pto => (2, 0),
                TimerKind::User(u) => (3, u),
            };
            w.u8(tag);
            w.u64(user);
        }
        for arms in self.core.timer_arms {
            w.u64(arms);
        }
        w.u64(self.core.timer_cancels);
        w.usize(self.core.completed.len());
        for rec in &self.core.completed {
            write_record(w, rec);
        }
        w.u64(self.stray_packets);
        w.usize(self.invariant_breaches.len());
        for b in &self.invariant_breaches {
            w.str(b);
        }
        let mut flows: Vec<FlowId> = self.senders.keys().copied().collect();
        flows.sort_unstable_by_key(|f| f.0);
        w.usize(flows.len());
        for f in flows {
            w.u64(f.0);
            self.senders[&f].save(w);
        }
        let mut flows: Vec<FlowId> = self.receivers.keys().copied().collect();
        flows.sort_unstable_by_key(|f| f.0);
        w.usize(flows.len());
        for f in flows {
            w.u64(f.0);
            self.receivers[&f].save(w);
        }
    }

    /// Restore state written by [`Host::save`] into this host, which must
    /// be freshly built and already wired to the same topology position
    /// (same node and egress ids). `make_strategy` constructs a strategy
    /// for each in-flight sender flow — it must produce the same scheme
    /// (validated by name) configured identically to the saved run, or the
    /// resumed run will diverge.
    pub fn load(
        &mut self,
        r: &mut SnapReader<'_>,
        make_strategy: &mut dyn FnMut(FlowId) -> Box<dyn Strategy>,
    ) -> Result<(), SnapError> {
        if self.core.next_token != 0 || !self.senders.is_empty() || !self.receivers.is_empty() {
            return Err(SnapError::Unsupported(
                "restore target host must be freshly built (no flows started)".into(),
            ));
        }
        r.expect_magic(SEC_HOST)?;
        let node = NodeId(r.u32()?);
        let egress = LinkId(r.u32()?);
        if node != self.core.node || egress != self.core.egress {
            return Err(SnapError::Unsupported(format!(
                "host was saved at node {:?} egress {:?}, restore target is wired to \
                 node {:?} egress {:?} (config drift?)",
                node, egress, self.core.node, self.core.egress
            )));
        }
        self.core.next_token = r.u64()?;
        let n_routes = r.usize()?;
        for _ in 0..n_routes {
            let token = r.u64()?;
            let flow = FlowId(r.u64()?);
            let kind = match r.u8()? {
                0 => {
                    let _ = r.u64()?;
                    TimerKind::Rto
                }
                1 => {
                    let _ = r.u64()?;
                    TimerKind::Pace
                }
                2 => {
                    let _ = r.u64()?;
                    TimerKind::Pto
                }
                3 => TimerKind::User(r.u64()?),
                tag => {
                    return Err(SnapError::Tag {
                        ty: "TimerKind",
                        tag,
                    })
                }
            };
            self.core.routes.insert(token, (flow, kind));
        }
        for slot in &mut self.core.timer_arms {
            *slot = r.u64()?;
        }
        self.core.timer_cancels = r.u64()?;
        let n_done = r.usize()?;
        self.core.completed.reserve(n_done);
        for _ in 0..n_done {
            self.core.completed.push(read_record(r)?);
        }
        self.stray_packets = r.u64()?;
        let n_breach = r.usize()?;
        for _ in 0..n_breach {
            let msg = r.str()?;
            self.invariant_breaches.push(msg);
        }
        let n_senders = r.usize()?;
        for _ in 0..n_senders {
            let flow = FlowId(r.u64()?);
            let conn = SenderConn::load(r, make_strategy(flow))?;
            self.senders.insert(flow, conn);
        }
        let n_receivers = r.usize()?;
        for _ in 0..n_receivers {
            let flow = FlowId(r.u64()?);
            let conn = ReceiverConn::load(r)?;
            self.receivers.insert(flow, conn);
        }
        Ok(())
    }
}

impl Node<Header> for Host {
    fn on_packet(&mut self, pkt: Packet<Header>, ctx: &mut Ctx<'_, Header>) {
        let flow = pkt.flow;
        match pkt.payload {
            Header::Syn { flow_bytes } => {
                let log_arrivals = self.log_arrivals;
                let conn = self.receivers.entry(flow).or_insert_with(|| {
                    let mut c =
                        ReceiverConn::new(flow, self.core.node, pkt.src, flow_bytes, ctx.now());
                    if log_arrivals {
                        c.arrivals = Some(Vec::new());
                    }
                    c
                });
                let reply = conn.syn_ack();
                ctx.send(self.core.egress, reply);
            }
            Header::SynAck { window } => {
                self.dispatch_sender(flow, ctx, |c, sh, ctx| c.handle_syn_ack(sh, ctx, window));
            }
            Header::Data(ref hdr) => match self.receivers.get_mut(&flow) {
                Some(conn) => {
                    let before = conn.delivered_bytes;
                    let reply = conn.on_data(hdr, pkt.sent_at, ctx.now());
                    let delivered = conn.delivered_bytes - before;
                    if delivered > 0 {
                        if let Some(tl) = &mut self.timelines {
                            tl.record(flow, ctx.now().as_nanos(), delivered as f64);
                            if conn.complete_at.is_some() {
                                tl.close(flow, ctx.now().as_nanos());
                            }
                        }
                    }
                    self.core.record(
                        ctx.now(),
                        flow,
                        FlowEvent::Delivered {
                            seg: hdr.seg,
                            cum: conn.cum(),
                            delivered_bytes: conn.delivered_bytes,
                        },
                    );
                    ctx.send(self.core.egress, reply);
                    if self.check_invariants {
                        let msg = (conn.delivered_bytes > conn.total_bytes()).then(|| {
                            format!(
                                "flow {flow}: receiver delivered {} bytes of a {}-byte flow \
                                 (ghost bytes)",
                                conn.delivered_bytes,
                                conn.total_bytes()
                            )
                        });
                        if let Some(m) = msg {
                            self.breach(m);
                        }
                    }
                }
                None => {
                    self.stray_packets += 1;
                }
            },
            Header::Ack(ref ack) => {
                let before = if self.check_invariants {
                    self.senders
                        .get(&flow)
                        .map(|c| (c.cum_ack(), c.total_segs()))
                } else {
                    None
                };
                self.dispatch_sender(flow, ctx, |c, sh, ctx| c.handle_ack(sh, ctx, ack));
                if let Some((before, total_segs)) = before {
                    // A finished flow is removed from the map; its final
                    // cumulative ACK equals the flow length by construction.
                    if let Some(after) = self.senders.get(&flow).map(|c| c.cum_ack()) {
                        if after < before {
                            self.breach(format!(
                                "flow {flow}: cumulative ACK moved backwards ({before} -> {after})"
                            ));
                        }
                        if after > total_segs {
                            self.breach(format!(
                                "flow {flow}: cumulative ACK {after} beyond flow end {total_segs}"
                            ));
                        }
                    }
                }
            }
            Header::Probe(ref ph) => match self.receivers.get_mut(&flow) {
                Some(conn) => {
                    let reply = conn.on_probe(ph, pkt.sent_at, ctx.now());
                    ctx.send(self.core.egress, reply);
                }
                None => {
                    self.stray_packets += 1;
                }
            },
            Header::ProbeAck(ref pa) => {
                self.dispatch_sender(flow, ctx, |c, sh, ctx| c.handle_probe_ack(sh, ctx, pa));
            }
        }
    }

    fn on_timer(&mut self, _id: TimerId, token: u64, ctx: &mut Ctx<'_, Header>) {
        if let Some((flow, kind)) = self.core.route(token) {
            self.dispatch_sender(flow, ctx, |c, sh, ctx| c.handle_timer(sh, ctx, kind));
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
