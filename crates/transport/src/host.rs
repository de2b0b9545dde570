//! A host: a simulator node holding transport endpoints.
//!
//! Each host has one egress link (toward its router or path). Sender
//! endpoints are created by the experiment harness via [`Host::start_flow`];
//! receiver endpoints are created automatically when a SYN arrives.
//! Completed-flow records accumulate on the host and, optionally, on a
//! shared completion bus the harness drains while stepping the simulator
//! (the web-workload driver reacts to completions in virtual time).

use crate::fasthash::FastMap;
use crate::receiver::{Finished, ReceiverConn, ReceiverView};
use crate::sender::{FlowRecord, SenderConn, TimerKind};
use crate::strategy::Strategy;
use crate::trace::{DeliveryTimelines, FlightRecorder, FlowEvent};
use crate::wire::Header;
use netsim::engine::EngineCore;
use netsim::node::{Node, TimerId};
use netsim::snap::{Snap, SnapError, SnapReader, SnapWriter};
use netsim::{Ctx, FlowId, LinkId, NodeId, Packet, SimTime};
use std::any::Any;
use std::cell::RefCell;
use std::collections::hash_map::Entry;
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
        self.routes.insert(t, (flow, kind));
        t
    }

    pub(crate) fn drop_token(&mut self, token: u64) {
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

/// A host's connections of one kind. A connection is built in a slot of the
/// slab, used there and dropped there; the flow-id index holds slot numbers,
/// so they are all that a rehash, a lookup or a reap moves. (Keyed by flow
/// directly, the map moved half a kilobyte per sender in and out again.)
struct ConnTable<T> {
    index: FastMap<FlowId, u32>,
    slots: Vec<Option<T>>,
    free: Vec<u32>,
}

impl<T> Default for ConnTable<T> {
    fn default() -> Self {
        ConnTable {
            index: FastMap::default(),
            slots: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<T> ConnTable<T> {
    fn len(&self) -> usize {
        self.index.len()
    }

    fn slot(&self, i: u32) -> &T {
        self.slots[i as usize]
            .as_ref()
            .expect("an indexed slot holds a connection")
    }

    fn slot_mut(&mut self, i: u32) -> &mut T {
        self.slots[i as usize]
            .as_mut()
            .expect("an indexed slot holds a connection")
    }

    fn get(&self, flow: FlowId) -> Option<&T> {
        self.index.get(&flow).map(|&i| self.slot(i))
    }

    fn get_mut(&mut self, flow: FlowId) -> Option<&mut T> {
        let &i = self.index.get(&flow)?;
        Some(self.slot_mut(i))
    }

    /// The connection of `flow`, made by `make` if it has none.
    fn get_or_insert_with(&mut self, flow: FlowId, make: impl FnOnce() -> T) -> &mut T {
        let i = match self.index.entry(flow) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                let i = self.free.pop().unwrap_or_else(|| {
                    self.slots.push(None);
                    (self.slots.len() - 1) as u32
                });
                self.slots[i as usize] = Some(make());
                *e.insert(i)
            }
        };
        self.slot_mut(i)
    }

    fn remove(&mut self, flow: FlowId) -> Option<T> {
        let i = self.index.remove(&flow)?;
        self.free.push(i);
        self.slots[i as usize].take()
    }

    /// Slot order: whatever order flows came and went in.
    fn values(&self) -> impl Iterator<Item = &T> {
        self.slots.iter().flatten()
    }

    /// Ascending flow id, the order a checkpoint lists connections in.
    fn sorted(&self) -> Vec<(FlowId, &T)> {
        let mut entries: Vec<_> = self
            .index
            .iter()
            .map(|(&f, &i)| (f, self.slot(i)))
            .collect();
        entries.sort_unstable_by_key(|e| e.0);
        entries
    }
}

/// A host's receivers. An open one lives in the connection table; at the
/// segment that completes it, it becomes a [`Finished`] record in one list
/// sorted by flow id, found by binary search. Finished receivers far
/// outnumber open ones in a service run (they wait out the reap grace), so
/// they carry no index and none of the open state.
#[derive(Default)]
struct Receivers {
    open: ConnTable<ReceiverConn>,
    finished: Vec<Finished>,
    /// The node the finished receivers answer from, which their records
    /// leave out: the first one to finish sets it.
    node: Option<NodeId>,
}

impl Receivers {
    fn len(&self) -> usize {
        self.open.len() + self.finished.len()
    }

    /// Where `flow`'s record is in the finished list. Flow ids are issued
    /// in ascending order, so a new flow's SYN — which misses the open
    /// table too — is past the last record and needs no search.
    fn find(&self, flow: FlowId) -> Option<usize> {
        if self.finished.last().is_none_or(|f| f.flow() < flow) {
            return None;
        }
        self.finished
            .binary_search_by_key(&flow, Finished::flow)
            .ok()
    }

    fn view(&self, flow: FlowId) -> Option<ReceiverView> {
        match self.open.get(flow) {
            Some(conn) => Some(conn.view()),
            None => self.find(flow).map(|i| self.finished[i].view()),
        }
    }

    /// Move `flow`'s open receiver to the finished list if it completed
    /// (only damaged state stays behind).
    fn settle(&mut self, flow: FlowId) {
        let Some(conn) = self.open.get(flow).filter(|c| c.finishes_exactly()) else {
            return;
        };
        self.node = Some(conn.local());
        let conn = self.open.remove(flow).expect("looked up");
        // Flows complete nearly in id order: mostly this one sorts last.
        if self.finished.last().is_none_or(|f| f.flow() < flow) {
            self.finished.push(conn.finish());
        } else {
            let at = self.finished.partition_point(|f| f.flow() < flow);
            self.finished.insert(at, conn.finish());
        }
    }

    /// The finished list's records as the complete receivers they stand
    /// for, which is what a checkpoint holds.
    fn reopened(&self) -> impl Iterator<Item = (FlowId, ReceiverConn)> + '_ {
        self.finished.iter().map(|f| {
            let node = self.node.expect("a finished receiver set the node");
            (f.flow(), f.to_conn(node))
        })
    }
}

/// Travels as one flow-keyed map, open and finished receivers merged in
/// flow order, each as a [`ReceiverConn`]. Load sends a receiver to the
/// finished list only when finishing it loses nothing, so a load re-saves
/// the bytes it read.
impl Snap for Receivers {
    fn save(&self, w: &mut SnapWriter) {
        w.seq_len(self.len());
        let mut finished = self.reopened().peekable();
        for (flow, conn) in self.open.sorted() {
            while let Some((f, done)) = finished.next_if(|e| e.0 < flow) {
                w.put(&f);
                w.put(&done);
            }
            w.put(&flow);
            w.put(conn);
        }
        for (f, done) in finished {
            w.put(&f);
            w.put(&done);
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let mut table = Receivers::default();
        for _ in 0..r.seq_len()? {
            let (flow, conn): (FlowId, ReceiverConn) = (r.get()?, r.get()?);
            // Saved in flow order, so each record goes on the end.
            let fits = conn.flow() == flow
                && conn.finishes_exactly()
                && table.node.is_none_or(|n| n == conn.local())
                && table.finished.last().is_none_or(|f| f.flow() < flow);
            if fits {
                table.node = Some(conn.local());
                table.finished.push(conn.finish());
            } else {
                table.open.get_or_insert_with(flow, || conn);
            }
        }
        Ok(table)
    }
}

/// A simulator node hosting transport senders and receivers.
pub struct Host {
    core: HostCore,
    senders: ConnTable<SenderConn>,
    receivers: Receivers,
    /// When set, receiver endpoints record delivered bytes into per-flow
    /// timelines (the Fig. 15 throughput traces). The final partial bin is
    /// closed at the flow-completion instant.
    pub timelines: Option<DeliveryTimelines>,
    /// Override the RFC 6298 1 s minimum RTO for flows started on this host
    /// (sensitivity studies; `None` = standard).
    pub min_rto: Option<netsim::SimDuration>,
    /// Data packets that arrived for unknown flows (should stay zero).
    pub stray_packets: u64,
    /// Transport-invariant violations seen on every ACK and data delivery
    /// (cumulative-ACK monotonicity, no ghost bytes).
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
                bus: None,
                recorder: None,
            },
            senders: ConnTable::default(),
            receivers: Receivers::default(),
            timelines: None,
            min_rto: None,
            stray_packets: 0,
            invariant_breaches: Vec::new(),
        }
    }

    /// Transport-invariant violations observed so far (empty unless
    /// something is genuinely broken).
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
        let finished = &mut self.receivers.finished;
        let n = finished.len();
        finished.retain(|f| f.complete_at() >= before);
        n - finished.len()
    }

    /// Install a flight recorder holding at most
    /// [`FlightRecorder::DEFAULT_CAP`] events.
    pub fn enable_recorder(&mut self) {
        self.core.recorder = Some(FlightRecorder::new(FlightRecorder::DEFAULT_CAP));
    }

    /// The installed flight recorder, if any.
    pub fn recorder(&self) -> Option<&FlightRecorder> {
        self.core.recorder.as_ref()
    }

    /// Records of flows completed with this host as the sender.
    pub fn completed(&self) -> &[FlowRecord] {
        &self.core.completed
    }

    /// Receiver-side state of a flow, open or finished, if it has any.
    pub fn receiver(&self, flow: FlowId) -> Option<ReceiverView> {
        self.receivers.view(flow)
    }

    /// Every receiver's state: the open ones, then the finished ones.
    pub fn receivers(&self) -> impl Iterator<Item = ReceiverView> + '_ {
        let open = self.receivers.open.values().map(ReceiverConn::view);
        open.chain(self.receivers.finished.iter().map(Finished::view))
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
        assert!(self.senders.get(flow).is_none(), "duplicate flow id {flow}");
        let (node, egress) = (self.core.node, self.core.egress);
        let conn = self.senders.get_or_insert_with(flow, || {
            SenderConn::new(flow, node, dst, egress, bytes, strategy)
        });
        if let Some(floor) = self.min_rto {
            conn.set_min_rto(floor);
        }
        conn.start(&mut self.core, core);
    }

    /// Run `f` on `flow`'s sender, if it is still in progress, and drop the
    /// sender once it is done.
    fn dispatch_sender<R, F>(&mut self, flow: FlowId, ctx: &mut Ctx<'_, Header>, f: F) -> Option<R>
    where
        F: FnOnce(&mut SenderConn, &mut HostCore, &mut Ctx<'_, Header>) -> R,
    {
        // In place (`senders` and `core` are disjoint fields).
        let conn = self.senders.get_mut(flow)?;
        let out = f(conn, &mut self.core, ctx);
        if conn.is_done() {
            self.senders.remove(flow);
        }
        Some(out)
    }
}

impl Default for Host {
    fn default() -> Self {
        Self::new()
    }
}

/// Section magic guarding a serialized host in a checkpoint stream.
const SEC_HOST: u32 = 0x4842_0003;

impl Host {
    /// Serialize every dynamic field of this host — live sender and
    /// receiver endpoints, timer-token routing, retained completion
    /// records — into the checkpoint codec.
    ///
    /// Configuration knobs (`min_rto`, record retention,
    /// the bus, timelines, the flight recorder) are NOT serialized: a
    /// restored host is rebuilt from the run configuration first, exactly
    /// like link structure on the engine side, and only the dynamic state
    /// is overlaid. Flight-recorder and timeline contents are
    /// diagnostics and do not survive a checkpoint.
    pub fn save(&self, w: &mut SnapWriter) {
        w.magic(SEC_HOST);
        w.put(&self.core.node);
        w.put(&self.core.egress);
        self.save_overlay(w);
        // Senders cannot go through the table codec (each load needs its
        // strategy built first), but they keep its layout.
        let senders = self.senders.sorted();
        w.seq_len(senders.len());
        for (flow, conn) in senders {
            w.put(&flow);
            conn.save(w);
        }
    }

    netsim::snap_fields!(fn save_overlay, load_overlay {
        core.next_token,
        core.routes,
        core.completed,
        stray_packets,
        invariant_breaches,
        receivers,
    });

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
        if self.core.next_token != 0 || self.senders.len() + self.receivers.len() != 0 {
            return Err(SnapError::Unsupported(
                "restore target host must be freshly built (no flows started)".into(),
            ));
        }
        r.expect_magic(SEC_HOST)?;
        let (node, egress): (NodeId, LinkId) = r.get()?;
        if node != self.core.node || egress != self.core.egress {
            return Err(SnapError::Unsupported(format!(
                "host was saved at node {:?} egress {:?}, restore target is wired to \
                 node {:?} egress {:?} (config drift?)",
                node, egress, self.core.node, self.core.egress
            )));
        }
        self.load_overlay(r)?;
        for _ in 0..r.seq_len()? {
            let flow = r.get()?;
            let conn = SenderConn::load(r, make_strategy(flow))?;
            self.senders.get_or_insert_with(flow, || conn);
        }
        Ok(())
    }
}

impl Node<Header> for Host {
    fn on_packet(&mut self, pkt: Packet<Header>, ctx: &mut Ctx<'_, Header>) {
        let flow = pkt.flow;
        match pkt.payload {
            Header::Syn { flow_bytes } => {
                let node = self.core.node;
                let reply = if let Some(conn) = self.receivers.open.get(flow) {
                    conn.syn_ack()
                } else if let Some(i) = self.receivers.find(flow) {
                    self.receivers.finished[i].syn_ack(node)
                } else {
                    let conn = ReceiverConn::new(flow, node, pkt.src, flow_bytes, ctx.now());
                    self.receivers
                        .open
                        .get_or_insert_with(flow, || conn)
                        .syn_ack()
                };
                ctx.send(self.core.egress, reply);
            }
            Header::SynAck { window } => {
                self.dispatch_sender(flow, ctx, |c, sh, ctx| c.handle_syn_ack(sh, ctx, window));
            }
            Header::Data(ref hdr) => {
                let now = ctx.now();
                let (ack, gained, view) = if let Some(conn) = self.receivers.open.get_mut(flow) {
                    let before = conn.delivered_bytes;
                    let ack = conn.on_data(hdr, pkt.sent_at, now);
                    let (got, total) = (conn.delivered_bytes, conn.total_bytes());
                    let view = conn.view();
                    if got > total {
                        let msg = format!(
                            "flow {flow}: receiver delivered {got} bytes of a {total}-byte \
                             flow (ghost bytes)"
                        );
                        self.breach(msg);
                    }
                    (ack, got - before, view)
                } else if let Some(i) = self.receivers.find(flow) {
                    let rec = &mut self.receivers.finished[i];
                    (rec.on_data(self.core.node, hdr, pkt.sent_at), 0, rec.view())
                } else {
                    self.stray_packets += 1;
                    return;
                };
                // Only a newly delivered segment can complete a flow.
                if gained > 0 {
                    let done = view.complete_at.is_some();
                    if let Some(tl) = &mut self.timelines {
                        tl.record(flow, now.as_nanos(), gained as f64);
                        if done {
                            tl.close(flow, now.as_nanos());
                        }
                    }
                    if done {
                        self.receivers.settle(flow);
                    }
                }
                self.core.record(
                    now,
                    flow,
                    FlowEvent::Delivered {
                        seg: hdr.seg,
                        cum: view.cum,
                        delivered_bytes: view.delivered_bytes,
                        class: hdr.class,
                    },
                );
                ctx.send(self.core.egress, ack);
            }
            Header::Ack(ref ack) => {
                let moved = self.dispatch_sender(flow, ctx, |c, sh, ctx| {
                    let before = c.cum_ack();
                    c.handle_ack(sh, ctx, ack);
                    (before, c.cum_ack(), c.total_segs())
                });
                if let Some((before, after, total_segs)) = moved {
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
            Header::Probe(ref ph) => {
                let (node, now) = (self.core.node, ctx.now());
                let reply = if let Some(conn) = self.receivers.open.get(flow) {
                    conn.on_probe(ph, pkt.sent_at, now)
                } else if let Some(i) = self.receivers.find(flow) {
                    self.receivers.finished[i].on_probe(node, ph, pkt.sent_at, now)
                } else {
                    self.stray_packets += 1;
                    return;
                };
                ctx.send(self.core.egress, reply);
            }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reno::{RenoConfig, RenoEngine};
    use crate::scoreboard::AckOutcome;
    use crate::sender::Ops;
    use crate::wire::{AckHeader, SegId};
    use crate::TransportSim;
    use netsim::loss::LossModel;
    use netsim::snap::assert_roundtrip;
    use netsim::topology::{build_path, PathNet, PathSpec};
    use netsim::{Rate, SimDuration};

    /// Window-driven test strategy that leaves a copy of its engine where
    /// the test can reach it (a boxed strategy is opaque to the chassis).
    struct MiniTcp {
        reno: RenoEngine,
        seen: Rc<RefCell<Option<RenoEngine>>>,
    }

    impl Strategy for MiniTcp {
        fn name(&self) -> &'static str {
            "MiniTcp"
        }
        fn on_established(&mut self, ops: &mut Ops<'_, '_>) {
            self.reno.on_established(ops);
        }
        fn on_ack(&mut self, ops: &mut Ops<'_, '_>, _a: &AckHeader, o: &AckOutcome) {
            self.reno.on_ack(ops, o);
            *self.seen.borrow_mut() = Some(self.reno.clone());
        }
        fn on_loss_detected(&mut self, ops: &mut Ops<'_, '_>, l: &[SegId]) {
            self.reno.on_loss(ops, l);
        }
        fn on_rto(&mut self, ops: &mut Ops<'_, '_>) {
            self.reno.on_rto(ops);
        }
        netsim::snap_fields!(fn save_state, load_state { reno });
    }

    /// A two-host path with both hosts wired.
    fn wired(spec: &PathSpec) -> (TransportSim, PathNet) {
        let mut sim = TransportSim::new(5);
        let net = build_path(&mut sim, spec, |_| Box::new(Host::new()));
        sim.with_node_mut::<Host, _>(net.sender, |h, _| h.wire(net.sender, net.forward));
        sim.with_node_mut::<Host, _>(net.receiver, |h, _| h.wire(net.receiver, net.reverse));
        (sim, net)
    }

    /// What a packet in the arena and a connection in its slot cost, so that
    /// growth is a decision: every hop reads the first, every flow builds
    /// and drops the other two.
    #[test]
    fn hot_types_keep_their_size() {
        use std::mem::size_of;
        assert!(size_of::<Packet<Header>>() <= 104);
        assert!(size_of::<SenderConn>() <= 600);
        assert!(size_of::<ReceiverConn>() <= 144);
        assert_eq!(size_of::<crate::trace::FlowEventRecord>(), 40);
    }

    /// One generic round-trip over every transport type a checkpoint
    /// carries, with values harvested from hosts in the middle of lossy
    /// transfers; then the host as a whole through its context-bound pair.
    #[test]
    fn checkpointed_transport_types_round_trip_mid_run() {
        let seen = Rc::new(RefCell::new(None));
        let make = |seen: &Rc<RefCell<Option<RenoEngine>>>| -> Box<dyn Strategy> {
            Box::new(MiniTcp {
                reno: RenoEngine::new(RenoConfig::default()),
                seen: seen.clone(),
            })
        };
        let mut spec = PathSpec::clean(Rate::from_mbps(10), SimDuration::from_millis(40));
        spec.loss = LossModel::wifi_bursty();
        let build = || wired(&spec);
        let (mut sim, net) = build();
        sim.with_node_mut::<Host, _>(net.sender, |h, core| {
            h.start_flow(core, FlowId(1), net.receiver, 3_000, make(&seen));
            h.start_flow(core, FlowId(2), net.receiver, 400_000, make(&seen));
            h.start_flow(core, FlowId(3), net.receiver, 90_000, make(&seen));
        });
        sim.run_until(SimTime::ZERO + SimDuration::from_millis(400));

        let tx = sim.node_as::<Host>(net.sender).unwrap();
        let rx = sim.node_as::<Host>(net.receiver).unwrap();
        assert!(!tx.core.completed.is_empty() && tx.active_senders() > 0);
        assert!(tx.senders().any(|c| c.counters().normal_retx > 0));
        assert_roundtrip(&tx.core.routes);
        assert_roundtrip(&tx.core.completed);
        assert_roundtrip(&rx.receivers);
        for conn in tx.senders() {
            assert_roundtrip(&conn.state);
        }
        assert_roundtrip(seen.borrow().as_ref().expect("ACKs arrived"));

        for (node, host) in [(net.sender, tx), (net.receiver, rx)] {
            let mut w = SnapWriter::new();
            host.save(&mut w);
            let bytes = w.into_bytes();
            let (mut fresh, _) = build();
            let copy = fresh.node_as_mut::<Host>(node).unwrap();
            let mut r = SnapReader::new(&bytes);
            copy.load(&mut r, &mut |_| make(&seen)).unwrap();
            assert_eq!(r.remaining(), 0);
            let mut w2 = SnapWriter::new();
            copy.save(&mut w2);
            assert!(bytes == w2.into_bytes(), "host save -> load -> save");

            // A host section is not sealed (the file around it is), so
            // these decoders meet the damage themselves: `Ok` or `Err`,
            // never a panic or a length-sized allocation.
            for cut in 0..bytes.len() {
                let (mut fresh, _) = build();
                let copy = fresh.node_as_mut::<Host>(node).unwrap();
                let got = copy.load(&mut SnapReader::new(&bytes[..cut]), &mut |_| make(&seen));
                assert!(matches!(got, Err(SnapError::Eof { .. })), "cut {cut}");
            }
            for bit in 0..bytes.len() * 8 {
                let mut bad = bytes.clone();
                bad[bit / 8] ^= 1 << (bit % 8);
                let (mut fresh, _) = build();
                let copy = fresh.node_as_mut::<Host>(node).unwrap();
                let _ = copy.load(&mut SnapReader::new(&bad), &mut |_| make(&seen));
            }
        }
    }

    /// Flows that finish out of flow-id order, caught mid-run beside open
    /// ones: reaping at a run of instants takes exactly the receivers a
    /// brute-force model picks, and a fresh host restored from the
    /// checkpoint re-saves the same bytes and reaps the same at each step.
    #[test]
    fn reaping_and_restore_match_a_brute_force_model() {
        let spec = PathSpec::clean(Rate::from_mbps(10), SimDuration::from_millis(40));
        let (mut sim, net) = wired(&spec);
        let flows: Vec<FlowId> = (0..40u64).map(|i| FlowId(i * 17 % 40 + 1)).collect();
        sim.with_node_mut::<Host, _>(net.sender, |h, core| {
            for (i, &flow) in flows.iter().enumerate() {
                let bytes = 1_000 + (i as u64 * 7_919 % 13) * 4_000;
                let strategy = Box::new(MiniTcp {
                    reno: RenoEngine::new(RenoConfig::default()),
                    seen: Rc::default(),
                });
                h.start_flow(core, flow, net.receiver, bytes, strategy);
            }
        });
        sim.run_until(SimTime::ZERO + SimDuration::from_millis(500));

        let save = |h: &Host| {
            let mut w = SnapWriter::new();
            h.save(&mut w);
            w.into_bytes()
        };
        let rx = sim.node_as_mut::<Host>(net.receiver).unwrap();
        let (mut fresh, _) = wired(&spec);
        let copy = fresh.node_as_mut::<Host>(net.receiver).unwrap();
        copy.load(&mut SnapReader::new(&save(rx)), &mut |_| unreachable!())
            .unwrap();
        assert!(save(rx) == save(copy), "host save -> load -> save");

        let mut model: Vec<(FlowId, ReceiverView)> = flows
            .iter()
            .filter_map(|&f| Some((f, rx.receiver(f)?)))
            .collect();
        let mut done: Vec<_> = model
            .iter()
            .filter_map(|&(f, v)| Some((v.complete_at?, f)))
            .collect();
        done.sort();
        let (finished, open) = (rx.receivers.finished.len(), rx.receivers.open.len());
        assert_eq!((finished, open), (done.len(), model.len() - done.len()));
        assert!(
            finished >= 10 && open >= 3,
            "{finished} finished, {open} open"
        );
        assert!(
            done.windows(2).any(|w| w[0].1 > w[1].1),
            "finished in flow order"
        );

        // Each instant twice: on a completion (which stays), then just past.
        let past = |t: SimTime| SimTime::from_nanos(t.as_nanos() + 1);
        let (first, fifth, tenth) = (done[0].0, done[4].0, done[9].0);
        let end = SimTime::ZERO + SimDuration::from_secs(9);
        for before in [first, first, fifth, past(fifth), tenth, past(tenth), end] {
            let n = model.len();
            model.retain(|(_, v)| v.complete_at.is_none_or(|t| t >= before));
            for host in [&mut *rx, &mut *copy] {
                assert_eq!(
                    host.reap_receivers(before),
                    n - model.len(),
                    "at {before:?}"
                );
                let mut got: Vec<_> = host.receivers().map(|v| format!("{v:?}")).collect();
                let mut want: Vec<_> = model.iter().map(|(_, v)| format!("{v:?}")).collect();
                got.sort();
                want.sort();
                assert_eq!(got, want, "at {before:?}");
                for &f in &flows {
                    let kept = model.iter().find(|e| e.0 == f).map(|e| e.1);
                    assert_eq!(host.receiver(f), kept, "{f} at {before:?}");
                }
            }
            assert!(save(rx) == save(copy), "reaped alike at {before:?}");
        }
        assert_eq!(rx.receivers().count(), open);
    }
}
