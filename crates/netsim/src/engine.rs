//! The discrete-event engine.
//!
//! Events are totally ordered by `(time, sequence)`: two events at the same
//! instant fire in the order their seqs were drawn — when they were
//! scheduled, except that a packet's arrival and its end of transmission
//! draw theirs together when serialization starts — so no hash-map
//! iteration order or floating-point comparison can perturb a run. Wire
//! loss draws from the engine's seeded [`SimRng`], and nothing else does;
//! fault injection draws from per-link substreams forked from it.
//!
//! Every packet's fate is decided when its serialization starts: the loss
//! draw and the fault decisions are made there, and the arrival, if there
//! is one, is pushed there. The end of a transmission is an event only
//! once a packet queues behind it: a `LinkFree` at the `(at, seq)` drawn
//! for it at the start.
//!
//! The queue behind the clock is a bucketed calendar queue (`eventq`
//! module) rather than a binary heap: the
//! near future lives in fixed-width time buckets consumed in place, the far
//! future in a heap behind them. Timer liveness is tracked by
//! generation-stamped slots instead of a hash set, so arm/cancel/fire are
//! all O(1) and allocation-free. Both structures preserve the exact
//! `(time, seq)` total order — the swap is observationally invisible, which
//! the golden-output regression tests in `scenarios` enforce byte-for-byte.

use crate::eventq::{EventEntry, EventKind, EventQueue, TimerSlots};
use crate::faults::{FaultSpec, FaultState};
use crate::link::{LinkSpec, LinkState, LinkStats};
use crate::node::{Node, TimerId};
use crate::packet::{
    LinkId, NodeId, Packet, PacketArena, PacketHandle, PacketId, PacketMeta, Payload,
};
use crate::queue::{QueueStats, Verdict};
use crate::rng::SimRng;
use crate::snap::{Snap, SnapError, SnapReader, SnapWriter, SNAP_MAGIC, SNAP_VERSION};
use crate::time::{SimDuration, SimTime};

/// What happened on the wire — delivered to an optional trace hook.
///
/// Ordering contract: every [`LinkStats`]/queue counter that accounts for an
/// event is incremented *immediately before* the event is emitted, with
/// nothing observable in between (atomic-in-order). A tracer therefore sees
/// stats that already include the event it is being told about, at every
/// event boundary — `netsim/tests/conservation.rs` asserts this in lockstep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // variant fields (link/packet/size) are self-describing
pub enum TraceEvent {
    /// A packet started serializing onto a link.
    TxStart {
        link: LinkId,
        packet: PacketId,
        size: u32,
    },
    /// A packet was dropped by a link's queue (congestion loss).
    QueueDrop {
        link: LinkId,
        packet: PacketId,
        size: u32,
    },
    /// A packet was dropped by a link's random loss process (wire loss):
    /// reported, and counted, when its serialization starts, right after
    /// its `TxStart`.
    WireDrop {
        link: LinkId,
        packet: PacketId,
        size: u32,
    },
    /// A packet arrived at a node.
    Deliver {
        node: NodeId,
        packet: PacketId,
        size: u32,
    },
    /// A packet was rejected at offer time by a fault down-window.
    FaultDrop {
        link: LinkId,
        packet: PacketId,
        size: u32,
    },
    /// A packet was swallowed by a fault blackhole window open at the end
    /// of its serialization: reported, and counted, at its start.
    Blackhole {
        link: LinkId,
        packet: PacketId,
        size: u32,
    },
    /// Fault duplication scheduled a second delivery of this packet:
    /// reported, and counted, when its serialization starts.
    Duplicate {
        link: LinkId,
        packet: PacketId,
        size: u32,
    },
    /// A corrupted packet reached a node and was dropped there (checksum
    /// failure) instead of being dispatched.
    CorruptDrop {
        node: NodeId,
        packet: PacketId,
        size: u32,
    },
}

/// A trace callback.
pub type Tracer = Box<dyn FnMut(SimTime, &TraceEvent)>;

/// The parts of the engine that remain borrowable while a node is being
/// dispatched (the node itself is temporarily moved out of the node table).
pub struct EngineCore<P: Payload> {
    now: SimTime,
    seq: u64,
    /// The seq of the entry being fired; at a run's horizon, the next seq
    /// to be drawn, since every entry at `now` has fired. With `now` it is
    /// the engine's position in the `(at, seq)` order, which says whether
    /// a transmission has ended.
    firing: u64,
    events: EventQueue,
    links: Vec<LinkState>,
    /// Bodies of every packet in flight or queued; events and link queues
    /// hold generation-stamped handles into this slab.
    packets: PacketArena<P>,
    /// Reusable scratch for dequeue-time (AQM) drop victims.
    queue_drop_scratch: Vec<PacketMeta>,
    rng: SimRng,
    timers: TimerSlots,
    /// Timer wake-ups popped with nothing to do.
    dead_timer_pops: u64,
    next_packet_id: u64,
    tracer: Option<Tracer>,
    corrupt_dropped: u64,
    /// Total events dispatched (for runaway detection and perf reporting).
    pub events_processed: u64,
}

impl<P: Payload> EngineCore<P> {
    fn push(&mut self, at: SimTime, kind: EventKind) {
        debug_assert!(
            at >= self.now,
            "scheduling into the past: {at} < {}",
            self.now
        );
        let seq = self.next_seq();
        self.push_seq(at, seq, kind);
    }

    /// Push an entry whose seq was drawn earlier.
    fn push_seq(&mut self, at: SimTime, seq: u64, kind: EventKind) {
        self.events.push(self.now, EventEntry { at, seq, kind });
    }

    fn next_seq(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    fn trace(&mut self, ev: TraceEvent) {
        if let Some(t) = &mut self.tracer {
            t(self.now, &ev);
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Transmit `pkt` on `link`. The packet gets a fresh [`PacketId`] and its
    /// `sent_at` stamped. If the link is busy the packet is offered to the
    /// link's queue (and may be dropped).
    pub fn send_on(&mut self, link: LinkId, mut pkt: Packet<P>) {
        pkt.id = PacketId(self.next_packet_id);
        self.next_packet_id += 1;
        pkt.sent_at = self.now;
        self.forward_on(link, pkt);
    }

    /// Transmit a packet that already has an id (a node forwarding what it
    /// was delivered; a router's packets never leave the arena and go
    /// through [`Node::relay`] instead).
    pub fn forward_on(&mut self, link: LinkId, pkt: Packet<P>) {
        let h = self.packets.alloc(pkt);
        self.offer_parked(link, h);
    }

    /// Offer the packet parked under `h` to `link`: onto the wire if the
    /// link is idle, else to its queue. The handle is the link's from here
    /// on — a refusal (link down, queue full) frees it.
    fn offer_parked(&mut self, link: LinkId, h: PacketHandle) {
        let now = self.now;
        let meta = self.packets.meta(h);
        let l = &mut self.links[link.0 as usize];
        l.stats.offered += 1;
        // A down link rejects the packet at offer time (no carrier); a
        // packet already serializing completes (store-and-forward).
        if l.faults.as_ref().is_some_and(|f| f.is_down(now)) {
            l.stats.down_dropped += 1;
            self.packets.free(h);
            self.trace(TraceEvent::FaultDrop {
                link,
                packet: meta.id,
                size: meta.size,
            });
            return;
        }
        if !l.on_wire(now, self.firing) {
            self.start_tx(link, meta);
        } else if l.queue.enqueue(meta, now) == Verdict::Dropped {
            self.packets.free(h);
            self.trace(TraceEvent::QueueDrop {
                link,
                packet: meta.id,
                size: meta.size,
            });
        } else if !l.busy {
            // The first packet queued behind a transmission: its end
            // becomes an event, at the place drawn for it at its start.
            l.busy = true;
            let (at, seq) = (l.busy_until, l.tx_seq);
            self.push_seq(at, seq, EventKind::LinkFree { link });
        }
    }

    /// Put `meta`'s packet on the wire of `link`, whose queue it has left
    /// (or bypassed). Two seqs are drawn: `s` ranks the end of
    /// transmission, `s + 1` the arrival. The packet's fate is decided
    /// here, its arrival pushed now, and the end of transmission pushed as
    /// a `LinkFree` only if a packet waits behind it.
    fn start_tx(&mut self, link: LinkId, meta: PacketMeta) {
        let s = self.seq;
        self.seq += 2;
        let now = self.now;
        let l = &mut self.links[link.0 as usize];
        l.apply_fault_steps(now);
        let done = now + l.tx_time(meta.size);
        (l.busy_until, l.tx_seq) = (done, s);
        l.busy = !l.queue.is_empty();
        let decides = l.faults.is_some() || !l.loss.model().is_none();
        let (busy, node, delay) = (l.busy, l.dst, l.delay);
        l.stats.tx_packets += 1;
        l.stats.tx_bytes += meta.size as u64;
        self.trace(TraceEvent::TxStart {
            link,
            packet: meta.id,
            size: meta.size,
        });
        // No loss model and no fault spec: nothing is left to decide.
        let arrive = if decides {
            self.decide(link, meta, done)
        } else {
            Some(done + delay)
        };
        if let Some(at) = arrive {
            let pkt = meta.handle;
            self.push_seq(at, s + 1, EventKind::Deliver { node, link, pkt });
        }
        if busy {
            self.push_seq(done, s, EventKind::LinkFree { link });
        }
    }

    /// Decide the fate of `meta`'s packet, which started serializing on
    /// `link` and ends at `done`: one wire-loss draw from the engine RNG,
    /// the blackhole windows at `done`, and the corrupt, reorder and
    /// duplicate draws from the link's fault substream. Returns when the
    /// packet arrives, after the delay in force at `done`, or `None` if it
    /// was lost (its slot is freed). Out of line: most packets cross links
    /// that decide nothing, and `start_tx` stays small for them.
    ///
    /// Each outcome's counter is bumped right before its trace event (the
    /// `TraceEvent` atomic-in-order contract).
    #[inline(never)]
    fn decide(&mut self, link: LinkId, meta: PacketMeta, done: SimTime) -> Option<SimTime> {
        let (pkt, packet, size) = (meta.handle, meta.id, meta.size);
        let l = &mut self.links[link.0 as usize];
        if l.loss.should_drop(&mut self.rng) {
            l.stats.wire_lost += 1;
            self.packets.free(pkt);
            self.trace(TraceEvent::WireDrop { link, packet, size });
            return None;
        }
        let Some(f) = l.faults.as_mut() else {
            return Some(done + l.delay);
        };
        if f.is_blackholed(done) {
            l.stats.blackholed += 1;
            self.packets.free(pkt);
            self.trace(TraceEvent::Blackhole { link, packet, size });
            return None;
        }
        // Fault decisions come from the link's private substream, so the
        // engine RNG sequence is identical with faults on or off. Draw
        // order per surviving packet is fixed: corrupt, reorder, duplicate
        // (plus the duplicate's own reorder draw).
        let arrive = done + f.delay_at(done).unwrap_or(l.delay);
        if f.draw_corrupt() {
            self.packets.get_mut(pkt).corrupted = true;
            l.stats.corrupt_marked += 1;
        }
        let extra = f.draw_reorder_extra();
        if f.draw_duplicate() {
            let at = arrive + f.draw_reorder_extra();
            let node = l.dst;
            l.stats.duplicated += 1;
            self.trace(TraceEvent::Duplicate { link, packet, size });
            // The duplicate gets its own arena slot holding a clone of the
            // (possibly corrupt-marked) body, and its own seq, drawn after
            // the original's: both copies are independent deliveries.
            let dup = self.packets.get(pkt).clone();
            let dup = self.packets.alloc(dup);
            self.push(
                at,
                EventKind::Deliver {
                    node,
                    link,
                    pkt: dup,
                },
            );
        }
        Some(arrive + extra)
    }

    /// Pull the next packet (if any) from `link`'s queue onto the wire, or
    /// mark the link idle. AQM disciplines may surrender dequeue-time drop
    /// victims here; those are accounted in [`QueueStats`] by the queue
    /// itself and emit no trace event — the engine only releases their
    /// arena slots.
    fn pump_link(&mut self, link: LinkId) {
        let now = self.now;
        let mut dropped = std::mem::take(&mut self.queue_drop_scratch);
        let l = &mut self.links[link.0 as usize];
        match l.queue.dequeue(now, &mut dropped) {
            Some(next) => self.start_tx(link, next),
            None => l.busy = false,
        }
        for victim in dropped.drain(..) {
            self.packets.free(victim.handle);
        }
        self.queue_drop_scratch = dropped;
    }

    /// Every entry due by `until` has fired: move the clock to `until` if
    /// it is behind, and past every entry at the new `now`. A clock already
    /// beyond `until` (a budgeted run stopped mid-instant) stays where it is.
    fn reach_horizon(&mut self, until: SimTime) {
        if self.now <= until {
            self.now = until;
            self.firing = self.seq;
        }
    }

    /// Schedule a timer for `node`, `after` from now. Returns an id usable
    /// with [`EngineCore::cancel_timer`].
    pub fn set_timer(&mut self, node: NodeId, after: SimDuration, token: u64) -> TimerId {
        self.set_timer_at(node, self.now + after, token)
    }

    /// Schedule a timer at an absolute instant.
    pub fn set_timer_at(&mut self, node: NodeId, at: SimTime, token: u64) -> TimerId {
        let at = at.max(self.now);
        // The arming takes its place in the `(at, seq)` order here, whether
        // or not a queue entry is pushed for it.
        let seq = self.next_seq();
        let (id, push) = self.timers.arm(self.now, node, token, at, seq);
        if push {
            let kind = EventKind::Timer { node, id, token };
            self.events.push(self.now, EventEntry { at, seq, kind });
        }
        id
    }

    /// Cancel a timer; a timer that already fired is ignored.
    ///
    /// Nothing is removed from the queue: the timer's slot keeps its one
    /// queued wake-up, and the slot's next arming — the very next one, when
    /// a cancel is followed by a `set_timer` as in an RTO restart — rides it
    /// instead of pushing an entry of its own. A protocol that restarts its
    /// RTO on every ACK therefore holds one queue entry per timer however
    /// many ACKs arrive, not one per ACK until each old deadline passes.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.timers.disarm(id);
    }

    /// Number of events currently pending in the queue: packets on the wire
    /// and one wake-up per armed timer, plus the few wake-ups that will pop
    /// with nothing to do ([`Simulator::dead_timer_pops`]).
    pub fn pending_events(&self) -> usize {
        self.events.len()
    }

    /// Number of currently armed (uncancelled, unfired) timers.
    pub fn live_timer_count(&self) -> usize {
        self.timers.live()
    }

    /// Statistics for a link's queue.
    pub fn queue_stats(&self, link: LinkId) -> QueueStats {
        self.links[link.0 as usize].queue.stats()
    }

    /// Transmission statistics for a link.
    pub fn link_stats(&self, link: LinkId) -> LinkStats {
        self.links[link.0 as usize].stats
    }

    /// Corrupted packets dropped at delivery (checksum failures), all nodes.
    pub fn corrupt_dropped(&self) -> u64 {
        self.corrupt_dropped
    }

    /// Packets currently parked in the arena (on the wire or queued).
    pub fn live_packets(&self) -> usize {
        self.packets.live()
    }

    /// High-water mark of simultaneously parked packets (arena slots ever
    /// allocated — growth tests pin this).
    pub fn packet_arena_capacity(&self) -> usize {
        self.packets.capacity()
    }

    /// Number of links in the topology (oracles iterate every link).
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Schedule `pkt` to arrive at `node` at absolute time `at`, accounted
    /// to `link` (which must be an ingress stub link of this engine's
    /// topology — its `delivered` counter is bumped at arrival, closing the
    /// wire-side conservation books across a partition boundary).
    ///
    /// This is the shard driver's injection point: the packet body crossed
    /// the boundary by value, its source-side arena slot was released at
    /// the portal, and it gets a fresh slot here. The event takes the next
    /// local `seq`, so injection order decides the tiebreak among
    /// same-instant arrivals — callers must inject in a canonical order
    /// (see `crate::shard`). Panics if `at` is in this engine's past.
    pub fn inject_arrival(&mut self, at: SimTime, node: NodeId, link: LinkId, pkt: Packet<P>) {
        assert!(
            at >= self.now,
            "cross-shard arrival in the past: {at} < {} (lookahead violated)",
            self.now
        );
        assert!(
            (link.0 as usize) < self.links.len(),
            "inject_arrival: no such link {link}"
        );
        let h = self.packets.alloc(pkt);
        self.push(at, EventKind::Deliver { node, link, pkt: h });
    }
}

/// Section magic for the engine-scalar portion of a snapshot.
const SEC_ENGINE: u32 = 0x4842_0001;
/// Section magic for the per-link portion of a snapshot.
const SEC_LINKS: u32 = 0x4842_0002;

impl<P: Payload + Snap> EngineCore<P> {
    // The engine's own scalars, overlaid onto a freshly built engine: clock,
    // sequence counter, RNG stream position, and the timer slot table
    // (bit-exact, including free-list order).
    crate::snap_fields!(fn save_scalars, load_scalars {
        now,
        seq,
        firing,
        next_packet_id,
        corrupt_dropped,
        events_processed,
        rng,
        timers,
    });

    /// Serialize the engine's full dynamic state: the scalars above, the
    /// pending event multiset (with in-flight packet bodies inlined in
    /// place of their arena handles), and per link its busy flag, the end
    /// of its last transmission, its stats,
    /// current rate and delay, loss cursor, fault cursor and queue. Every
    /// queue discipline saves what it holds itself, and every topology the
    /// repo builds can be saved; only sharded partitions are not carried.
    ///
    /// Takes `&mut self` because the event queue is drained to its canonical
    /// `(at, seq)`-sorted form and refilled; the refill is observationally
    /// invisible (pop order depends only on `(at, seq)`), so saving does not
    /// perturb the run.
    pub fn save_snapshot(&mut self, w: &mut SnapWriter) {
        w.magic(SNAP_MAGIC);
        w.u32(SNAP_VERSION);
        w.magic(SEC_ENGINE);
        self.save_scalars(w);
        let entries = self.events.drain_sorted();
        w.seq_len(entries.len());
        for e in &entries {
            w.put(&e.at);
            w.put(&e.seq);
            match e.kind {
                EventKind::Deliver { node, link, pkt } => {
                    w.u8(1);
                    w.put(&node);
                    w.put(&link);
                    w.put(self.packets.get(pkt));
                }
                EventKind::Timer { node, id, token } => {
                    w.u8(2);
                    w.put(&node);
                    w.put(&id);
                    w.put(&token);
                }
                EventKind::LinkFree { link } => {
                    w.u8(3);
                    w.put(&link);
                }
            }
        }
        // Put the entries back: the drained queue re-anchors at the clock
        // on the first push and pops in the same order.
        for e in entries {
            self.events.push(self.now, e);
        }
        w.magic(SEC_LINKS);
        w.seq_len(self.links.len());
        let packets = &self.packets;
        for l in &self.links {
            w.put(&l.busy);
            w.put(&l.busy_until);
            w.put(&l.tx_seq);
            w.put(&l.stats);
            // Fault steps move a link's rate and delay.
            w.put(&l.rate);
            w.put(&l.delay);
            l.loss.save_cursor(w);
            w.put(&l.faults.is_some());
            if let Some(f) = &l.faults {
                f.save_cursor(w);
            }
            l.queue.save(w, &mut |w, m| w.put(packets.get(m.handle)));
        }
    }

    /// Restore dynamic state saved by [`EngineCore::save_snapshot`] into a
    /// *freshly built* engine whose static topology (nodes, links, queue
    /// capacities, loss models, fault specs) was rebuilt by the same code
    /// path that built the original. In-flight packet bodies get fresh
    /// arena slots in canonical order — event order, then link queues
    /// front-to-back — and every handle is rewritten, so arena layout may
    /// differ from the uninterrupted run (layout is unobservable; handles
    /// never leak into output).
    pub fn restore_snapshot(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        if self.packets.live() != 0 || self.events.len() != 0 || self.now != SimTime::ZERO {
            return Err(SnapError::Unsupported(
                "restore target must be a freshly built, never-run simulator".into(),
            ));
        }
        r.expect_magic(SNAP_MAGIC)?;
        let got = r.u32()?;
        if got != SNAP_VERSION {
            return Err(SnapError::Version {
                got,
                supported: SNAP_VERSION,
            });
        }
        r.expect_magic(SEC_ENGINE)?;
        self.load_scalars(r)?;
        for _ in 0..r.seq_len()? {
            let at = r.get()?;
            let seq = r.get()?;
            let kind = match r.u8()? {
                1 => EventKind::Deliver {
                    node: r.get()?,
                    link: r.get()?,
                    pkt: self.packets.alloc(r.get()?),
                },
                2 => EventKind::Timer {
                    node: r.get()?,
                    id: r.get()?,
                    token: r.get()?,
                },
                3 => EventKind::LinkFree { link: r.get()? },
                tag => {
                    return Err(SnapError::Tag {
                        ty: "EventKind",
                        tag,
                    })
                }
            };
            // Anchored at the restored clock, not at the earliest entry:
            // on an idle system that is a far timer, and the next arrivals
            // are scheduled between the clock and it.
            self.events.push(self.now, EventEntry { at, seq, kind });
        }
        r.expect_magic(SEC_LINKS)?;
        let n_links = r.seq_len()?;
        if n_links != self.links.len() {
            return Err(SnapError::Unsupported(format!(
                "snapshot has {n_links} links, rebuilt topology has {} (config drift?)",
                self.links.len()
            )));
        }
        let packets = &mut self.packets;
        for (i, l) in self.links.iter_mut().enumerate() {
            l.busy = r.get()?;
            l.busy_until = r.get()?;
            l.tx_seq = r.get()?;
            l.stats = r.get()?;
            l.rate = r.get()?;
            l.delay = r.get()?;
            l.loss.load_cursor(r)?;
            let faulted: bool = r.get()?;
            if faulted != l.faults.is_some() {
                return Err(SnapError::Unsupported(format!(
                    "link l{i} has fault injection: snapshot {faulted}, rebuilt topology {} \
                     (config drift?)",
                    l.faults.is_some()
                )));
            }
            if let Some(f) = &mut l.faults {
                f.load_cursor(r)?;
            }
            l.queue.load(r, &mut |r| {
                let h = packets.alloc(r.get()?);
                Ok(packets.meta(h))
            })?;
        }
        Ok(())
    }
}

/// Execution context handed to a node during dispatch.
pub struct Ctx<'a, P: Payload> {
    core: &'a mut EngineCore<P>,
    node: NodeId,
}

impl<'a, P: Payload> Ctx<'a, P> {
    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.core.now()
    }

    /// The id of the node being dispatched.
    pub fn node_id(&self) -> NodeId {
        self.node
    }

    /// Send a packet out on a link attached to this node.
    pub fn send(&mut self, link: LinkId, pkt: Packet<P>) {
        self.core.send_on(link, pkt);
    }

    /// Forward an already-stamped packet (routers).
    pub fn forward(&mut self, link: LinkId, pkt: Packet<P>) {
        self.core.forward_on(link, pkt);
    }

    /// Set a timer for this node.
    pub fn set_timer(&mut self, after: SimDuration, token: u64) -> TimerId {
        self.core.set_timer(self.node, after, token)
    }

    /// Set a timer for this node at an absolute instant.
    pub fn set_timer_at(&mut self, at: SimTime, token: u64) -> TimerId {
        self.core.set_timer_at(self.node, at, token)
    }

    /// Cancel a previously set timer.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.core.cancel_timer(id);
    }

    /// Queue statistics for a link (used by tests and in-simulation probes).
    pub fn queue_stats(&self, link: LinkId) -> QueueStats {
        self.core.queue_stats(link)
    }
}

/// The simulator: nodes, links, clock and event queue.
pub struct Simulator<P: Payload> {
    core: EngineCore<P>,
    nodes: Vec<Option<Box<dyn Node<P>>>>,
}

impl<P: Payload + Snap> Simulator<P> {
    /// Serialize engine dynamic state into `w`. Node state is *not*
    /// included — hosts save themselves through their own codecs; see
    /// [`EngineCore::save_snapshot`] for what is carried.
    pub fn save_snapshot(&mut self, w: &mut SnapWriter) {
        self.core.save_snapshot(w);
    }

    /// Restore engine dynamic state saved by [`Simulator::save_snapshot`]
    /// into a freshly built simulator with the same static topology. Node
    /// state must be restored separately by the caller.
    pub fn restore_snapshot(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.core.restore_snapshot(r)
    }
}

impl<P: Payload> Simulator<P> {
    /// Create an empty simulator with the given root seed.
    pub fn new(seed: u64) -> Self {
        Simulator {
            core: EngineCore {
                now: SimTime::ZERO,
                seq: 0,
                firing: 0,
                events: EventQueue::new(),
                links: Vec::new(),
                packets: PacketArena::new(),
                queue_drop_scratch: Vec::new(),
                rng: SimRng::new(seed),
                timers: TimerSlots::new(),
                dead_timer_pops: 0,
                next_packet_id: 0,
                tracer: None,
                corrupt_dropped: 0,
                events_processed: 0,
            },
            nodes: Vec::new(),
        }
    }

    /// Install a trace callback receiving every wire-level event.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.core.tracer = Some(tracer);
    }

    /// Add a node; returns its id.
    pub fn add_node(&mut self, node: Box<dyn Node<P>>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Some(node));
        id
    }

    /// Add a link; returns its id.
    pub fn add_link(&mut self, spec: LinkSpec) -> LinkId {
        let id = LinkId(self.core.links.len() as u32);
        self.core.links.push(LinkState::new(spec));
        id
    }

    /// Install a fault-injection spec on a link (replacing any previous
    /// one). Fault draws come from a substream forked from the engine seed
    /// and the link id, so the `(seed, spec)` pair fully determines every
    /// fault decision and the engine's own RNG stream is untouched.
    pub fn set_link_faults(&mut self, link: LinkId, spec: FaultSpec) {
        let rng = self.core.rng.fork_indexed("link-faults", link.0 as u64);
        self.core.links[link.0 as usize].faults = Some(FaultState::new(spec, rng));
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.core.now()
    }

    /// Access the engine core (scheduling from outside a node dispatch, e.g.
    /// the workload driver priming flow-start timers).
    pub fn core(&mut self) -> &mut EngineCore<P> {
        &mut self.core
    }

    /// Immutable view of a node, downcast to its concrete type.
    pub fn node_as<T: 'static>(&self, id: NodeId) -> Option<&T> {
        self.nodes[id.0 as usize]
            .as_deref()
            .and_then(|n| n.as_any().downcast_ref::<T>())
    }

    /// Mutable view of a node, downcast to its concrete type.
    pub fn node_as_mut<T: 'static>(&mut self, id: NodeId) -> Option<&mut T> {
        self.nodes[id.0 as usize]
            .as_deref_mut()
            .and_then(|n| n.as_any_mut().downcast_mut::<T>())
    }

    /// Borrow a node mutably *together with* the engine core, so harness code
    /// outside a dispatch can both mutate the node and schedule events (e.g.
    /// a workload driver starting a new flow on a host). Returns `None` if
    /// the node is not of type `T`.
    pub fn with_node_mut<T: 'static, R>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut T, &mut EngineCore<P>) -> R,
    ) -> Option<R> {
        let idx = id.0 as usize;
        let mut n = self.nodes[idx].take().expect("node is being dispatched");
        let r = n
            .as_any_mut()
            .downcast_mut::<T>()
            .map(|t| f(t, &mut self.core));
        self.nodes[idx] = Some(n);
        r
    }

    /// Statistics for a link's queue.
    pub fn queue_stats(&self, link: LinkId) -> QueueStats {
        self.core.queue_stats(link)
    }

    /// Transmission statistics for a link.
    pub fn link_stats(&self, link: LinkId) -> LinkStats {
        self.core.link_stats(link)
    }

    /// Number of links in the topology.
    pub fn link_count(&self) -> usize {
        self.core.link_count()
    }

    /// Dispatch a single event. Returns `false` when the event queue is empty.
    ///
    /// A timer wake-up that fires nothing — its deadline has moved, or its
    /// slot was cancelled — still advances the clock to its instant and
    /// counts as a processed event; no node sees it.
    pub fn step(&mut self) -> bool {
        match self.core.events.pop() {
            Some(entry) => {
                self.fire(entry);
                true
            }
            None => false,
        }
    }

    /// Advance the clock to a popped entry and dispatch it.
    #[inline]
    fn fire(&mut self, entry: EventEntry) {
        debug_assert!(entry.at >= self.core.now, "time went backwards");
        self.core.now = entry.at;
        self.core.firing = entry.seq;
        self.core.events_processed += 1;
        match entry.kind {
            EventKind::LinkFree { link } => self.core.pump_link(link),
            EventKind::Deliver { node, link, pkt: h } => {
                let pkt = self.core.packets.get(h);
                let (packet, size) = (pkt.id, pkt.size);
                if pkt.corrupted {
                    // A corrupt arrival is dropped where it lands, at a
                    // router as at a host.
                    self.core.packets.free(h);
                    self.core.corrupt_dropped += 1;
                    self.core.links[link.0 as usize].stats.corrupt_dropped += 1;
                    self.core
                        .trace(TraceEvent::CorruptDrop { node, packet, size });
                    return;
                }
                let relay = self.nodes[node.0 as usize]
                    .as_mut()
                    .expect("no node is being dispatched between events")
                    .relay(pkt);
                self.core.links[link.0 as usize].stats.delivered += 1;
                self.core.trace(TraceEvent::Deliver { node, packet, size });
                match relay {
                    // A hop: the packet stays parked where `send_on` put it
                    // and only its handle moves on.
                    Some(out) => self.core.offer_parked(out, h),
                    // Its last: delivery hands the body to the node by value.
                    None => {
                        let pkt = self.core.packets.take(h);
                        self.dispatch(node, |n, ctx| n.on_packet(pkt, ctx));
                    }
                }
            }
            EventKind::Timer { node, id, token } => {
                if self.core.timers.disarm(id) {
                    self.dispatch(node, |n, ctx| n.on_timer(id, token, ctx));
                } else if let Some(moved) = self.core.timers.requeue(id, entry.at, entry.seq) {
                    self.core.events.push(self.core.now, moved);
                } else {
                    self.core.dead_timer_pops += 1;
                }
            }
        }
    }

    fn dispatch<F>(&mut self, node: NodeId, f: F)
    where
        F: FnOnce(&mut dyn Node<P>, &mut Ctx<'_, P>),
    {
        let idx = node.0 as usize;
        let mut n = self.nodes[idx].take().unwrap_or_else(|| {
            panic!("dispatch to node {node} while it is already being dispatched")
        });
        {
            let mut ctx = Ctx {
                core: &mut self.core,
                node,
            };
            f(n.as_mut(), &mut ctx);
        }
        self.nodes[idx] = Some(n);
    }

    /// Run until the clock reaches `until` or the event queue drains.
    pub fn run_until(&mut self, until: SimTime) {
        // A bounded pop, not peek-then-step: looking at the head must not
        // carry the queue's cursor past `until`, where the clock stops.
        while let Some(entry) = self.core.events.pop_due(until) {
            self.fire(entry);
        }
        self.core.reach_horizon(until);
    }

    /// [`Simulator::run_until`], firing at most `budget` events. Returns
    /// `true` when the horizon was reached (the clock is at `until`),
    /// `false` when the budget ran out first (the clock is at the last
    /// event fired). A watchdog loops on it, checking its caps between
    /// calls; it pops with the same bound, so it fires the same events.
    pub fn run_until_budget(&mut self, until: SimTime, budget: u64) -> bool {
        // Counted on `events_processed`, not a loop index: with an index the
        // compiler copied each popped entry before `fire`, which `run_until`
        // hands over in place.
        let stop = self.core.events_processed.saturating_add(budget);
        while self.core.events_processed < stop {
            match self.core.events.pop_due(until) {
                Some(entry) => self.fire(entry),
                None => {
                    self.core.reach_horizon(until);
                    return true;
                }
            }
        }
        false
    }

    /// Run until the event queue is empty. `max_events` guards against
    /// runaway protocols in tests (panics when exceeded).
    pub fn run_to_completion(&mut self, max_events: u64) {
        let start = self.core.events_processed;
        while self.step() {
            if self.core.events_processed - start > max_events {
                panic!(
                    "simulation exceeded {max_events} events (runaway?) at t={}",
                    self.core.now
                );
            }
        }
    }

    /// Time of the next scheduled event, if any.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.core.events.next_at()
    }

    /// Events scheduled so far into the bucket the queue is consuming while
    /// that bucket is split: one that held more than 64 entries when the
    /// queue reached it, or whose sorted run grew past 64 afterwards, and
    /// was dealt into 2 µs sub-buckets. Next to none where buckets are
    /// sparse; most of [`Simulator::events_processed`] where hundreds of
    /// microsecond-scale events share each 131 µs bucket. On a workload
    /// whose buckets are sparse a share near 100 % means the cursor has got
    /// ahead of the clock, which sends every push into its own bucket;
    /// `tests/cursor_discipline.rs` watches for that.
    pub fn split_pushes(&self) -> u64 {
        self.core.events.split_pushes()
    }

    /// Timer wake-ups popped so far that had nothing to do: their slot was
    /// cancelled and not armed again, or an arming earlier than the slot's
    /// queued wake-up had pushed a second one that took its place. Restarting
    /// a timer for a *later* instant — every RTO restart — leaves none, so
    /// this stays a small share of [`Simulator::events_processed`];
    /// `tests/cursor_discipline.rs` holds it under 1 % on a congested path.
    pub fn dead_timer_pops(&self) -> u64 {
        self.core.dead_timer_pops
    }

    /// Number of events popped so far: deliveries, ends of transmission
    /// with a packet waiting behind them, and timer wake-ups, whether or
    /// not the wake-up fired its timer.
    pub fn events_processed(&self) -> u64 {
        self.core.events_processed
    }

    /// Events currently pending in the queue — the "wheel depth" a shard
    /// telemetry window reports. Immutable twin of
    /// [`EngineCore::pending_events`] for observers that only hold `&self`.
    pub fn pending_events(&self) -> usize {
        self.core.pending_events()
    }

    /// Packets currently parked in the arena (on the wire or queued).
    pub fn live_packets(&self) -> usize {
        self.core.live_packets()
    }

    /// High-water mark of simultaneously parked packets — the arena's
    /// capacity never shrinks, so this is also its allocated footprint.
    pub fn arena_high_water(&self) -> usize {
        self.core.packet_arena_capacity()
    }

    /// Snapshot of everything that should be empty once a simulation has
    /// drained: live timers, busy links, queued packets. Wake-ups of
    /// cancelled timers still sitting in the queue are *not* leaks and do
    /// not make a report unclean.
    pub fn hygiene_report(&self) -> HygieneReport {
        let busy_links: Vec<LinkId> = self
            .core
            .links
            .iter()
            .enumerate()
            .filter(|(_, l)| l.on_wire(self.core.now, self.core.firing))
            .map(|(i, _)| LinkId(i as u32))
            .collect();
        let backlogged_links: Vec<(LinkId, u64)> = self
            .core
            .links
            .iter()
            .enumerate()
            .filter(|(_, l)| l.queue.backlog_bytes() > 0)
            .map(|(i, l)| (LinkId(i as u32), l.queue.backlog_bytes()))
            .collect();
        HygieneReport {
            live_timers: self.core.timers.live(),
            pending_events: self.core.events.len(),
            live_packets: self.core.packets.live(),
            busy_links,
            backlogged_links,
        }
    }

    /// Panic with a diagnostic if the simulation left live timers, busy
    /// links, or queued packets behind. Call after a run has drained.
    pub fn assert_drained(&self) {
        let report = self.hygiene_report();
        assert!(report.is_clean(), "simulation not drained: {report}");
    }
}

/// What [`Simulator::hygiene_report`] found still alive after a run.
#[derive(Debug, Clone)]
pub struct HygieneReport {
    /// Armed, unfired timers (must be 0 at drain).
    pub live_timers: usize,
    /// Queue entries, including wake-ups of cancelled timers (informational).
    pub pending_events: usize,
    /// Packets still parked in the arena (must be 0 at drain: every packet
    /// on the wire or in a queue holds a slot, so a leftover means a leaked
    /// handle somewhere in the engine's drop paths).
    pub live_packets: usize,
    /// Links still mid-serialization (must be empty at drain).
    pub busy_links: Vec<LinkId>,
    /// Links with queued bytes (must be empty at drain).
    pub backlogged_links: Vec<(LinkId, u64)>,
}

impl HygieneReport {
    /// True when nothing leaked: no live timers, no live packets, no busy
    /// links, no backlog.
    pub fn is_clean(&self) -> bool {
        self.live_timers == 0
            && self.live_packets == 0
            && self.busy_links.is_empty()
            && self.backlogged_links.is_empty()
    }
}

impl std::fmt::Display for HygieneReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} live timers, {} pending queue entries, {} live packets, busy links {:?}, backlogged links {:?}",
            self.live_timers,
            self.pending_events,
            self.live_packets,
            self.busy_links,
            self.backlogged_links
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::DropTail;
    use crate::time::Rate;
    use std::any::Any;

    /// Test node: records deliveries, can bounce packets back.
    struct Recorder {
        delivered: Vec<(SimTime, u64)>,
        timers: Vec<(SimTime, u64)>,
    }

    impl Node<u64> for Recorder {
        fn on_packet(&mut self, pkt: Packet<u64>, ctx: &mut Ctx<'_, u64>) {
            self.delivered.push((ctx.now(), pkt.payload));
        }
        fn on_timer(&mut self, _id: TimerId, token: u64, ctx: &mut Ctx<'_, u64>) {
            self.timers.push((ctx.now(), token));
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn recorder() -> Box<Recorder> {
        Box::new(Recorder {
            delivered: vec![],
            timers: vec![],
        })
    }

    fn two_node_sim(
        rate: Rate,
        delay: SimDuration,
        buf: u64,
    ) -> (Simulator<u64>, NodeId, NodeId, LinkId) {
        let mut sim = Simulator::new(0);
        let a = sim.add_node(recorder());
        let b = sim.add_node(recorder());
        let l = sim.add_link(LinkSpec {
            src: a,
            dst: b,
            rate,
            delay,
            queue: Box::new(DropTail::new(buf)),
            loss: crate::loss::LossModel::None,
        });
        (sim, a, b, l)
    }

    fn pkt(src: NodeId, dst: NodeId, size: u32, tag: u64) -> Packet<u64> {
        Packet::new(crate::packet::FlowId(0), src, dst, size, tag)
    }

    #[test]
    fn single_packet_latency_is_tx_plus_prop() {
        let (mut sim, a, b, l) =
            two_node_sim(Rate::from_mbps(15), SimDuration::from_millis(30), 100_000);
        sim.core().send_on(l, pkt(a, b, 1500, 7));
        sim.run_to_completion(1000);
        let rec = sim.node_as::<Recorder>(b).unwrap();
        // 1500B at 15 Mbps = 800us, plus 30ms prop.
        assert_eq!(
            rec.delivered,
            vec![(SimTime::ZERO + SimDuration::from_micros(30_800), 7)]
        );
    }

    #[test]
    fn packets_serialize_back_to_back() {
        let (mut sim, a, b, l) = two_node_sim(Rate::from_mbps(15), SimDuration::ZERO, 1_000_000);
        for i in 0..3 {
            sim.core().send_on(l, pkt(a, b, 1500, i));
        }
        sim.run_to_completion(1000);
        let rec = sim.node_as::<Recorder>(b).unwrap();
        let us = |x: u64| SimTime::ZERO + SimDuration::from_micros(x);
        assert_eq!(
            rec.delivered,
            vec![(us(800), 0), (us(1600), 1), (us(2400), 2)]
        );
    }

    #[test]
    fn queue_overflow_drops_excess() {
        // Buffer of 2 packets; send 5 while the link is busy with the first.
        let (mut sim, a, b, l) = two_node_sim(Rate::from_mbps(15), SimDuration::ZERO, 3000);
        for i in 0..5 {
            sim.core().send_on(l, pkt(a, b, 1500, i));
        }
        sim.run_to_completion(1000);
        let rec = sim.node_as::<Recorder>(b).unwrap();
        // First transmits immediately, two fit in the queue, two dropped.
        assert_eq!(rec.delivered.len(), 3);
        assert_eq!(sim.queue_stats(l).dropped, 2);
        let tags: Vec<u64> = rec.delivered.iter().map(|d| d.1).collect();
        assert_eq!(tags, vec![0, 1, 2], "drop-tail must drop the last arrivals");
    }

    /// Send a burst of `n` packets at t = 0 on `l`, drain, check that all
    /// of them arrived and nothing is left behind, and return the events
    /// popped.
    fn burst(sim: &mut Simulator<u64>, (a, b, l): (NodeId, NodeId, LinkId), n: u64) -> u64 {
        for i in 0..n {
            sim.core().send_on(l, pkt(a, b, 1500, i));
        }
        sim.run_to_completion(1000);
        assert_eq!(
            sim.node_as::<Recorder>(b).unwrap().delivered.len() as u64,
            n
        );
        assert!(sim.hygiene_report().is_clean(), "{}", sim.hygiene_report());
        sim.events_processed()
    }

    #[test]
    fn an_end_of_transmission_is_an_event_only_where_a_packet_waits_behind_it() {
        let loss_free = || {
            let (sim, a, b, l) =
                two_node_sim(Rate::from_mbps(15), SimDuration::from_millis(1), 1 << 20);
            (sim, (a, b, l))
        };
        // A lone packet on an idle loss-free link costs its arrival.
        let (mut sim, ends) = loss_free();
        assert_eq!(burst(&mut sim, ends, 1), 1);
        // A burst: n arrivals, and the end of every transmission a packet
        // waited behind.
        let (mut sim, ends) = loss_free();
        assert_eq!(burst(&mut sim, ends, 8), 2 * 8 - 1);
        // A loss model and a fault spec decide a packet's fate when its
        // serialization starts, so they cost the same events.
        let mut sim = Simulator::new(0);
        let (a, b) = (sim.add_node(recorder()), sim.add_node(recorder()));
        let spec = LinkSpec::drop_tail(a, b, Rate::from_mbps(15), SimDuration::ZERO, 1 << 20);
        let lossy = sim.add_link(spec.with_loss(crate::loss::LossModel::Bernoulli { p: 0.0 }));
        assert_eq!(burst(&mut sim, (a, b, lossy), 8), 2 * 8 - 1);
        let (mut sim, ends) = loss_free();
        sim.set_link_faults(ends.2, FaultSpec::none());
        assert_eq!(burst(&mut sim, ends, 8), 2 * 8 - 1);
    }

    #[test]
    fn a_transmission_holds_the_link_until_its_end_has_passed() {
        let tx = SimDuration::from_micros(800);
        let done = SimTime::ZERO + tx;
        // A loss-free link, and a lossy one whose first packet is lost when
        // its serialization starts but holds the link all the same.
        let first_lost = crate::loss::LossModel::DropList { ordinals: vec![1] };
        for loss in [crate::loss::LossModel::None, first_lost] {
            let lossy = !loss.is_none();
            let mut sim = Simulator::new(0);
            let (a, b) = (sim.add_node(recorder()), sim.add_node(recorder()));
            let spec = LinkSpec::drop_tail(a, b, Rate::from_mbps(15), SimDuration::ZERO, 1 << 20);
            let l = sim.add_link(spec.with_loss(loss));
            sim.core().send_on(l, pkt(a, b, 1500, 0));
            assert_eq!(sim.link_stats(l).wire_lost, lossy as u64);
            assert_eq!(sim.hygiene_report().busy_links, vec![l]);
            // Up to the instant it ends a second packet would wait behind
            // it...
            sim.run_until(SimTime::from_nanos(done.as_nanos() - 1));
            assert_eq!(sim.hygiene_report().busy_links, vec![l]);
            // ...and a driver that runs to that instant finds it over, as
            // it would have found the link had its end been an event.
            sim.run_until(done);
            assert!(sim.hygiene_report().busy_links.is_empty());
            sim.core().send_on(l, pkt(a, b, 1500, 1));
            sim.run_to_completion(100);
            let rec = sim.node_as::<Recorder>(b).unwrap();
            let want = [(done, 0), (done + tx, 1)];
            assert_eq!(rec.delivered, want[lossy as usize..]);
            assert!(sim.hygiene_report().is_clean());
            assert_eq!(sim.events_processed(), 2 - lossy as u64);
        }
    }

    #[test]
    fn checkpointed_engine_types_round_trip_mid_run() {
        use crate::snap::assert_roundtrip;
        // Busy link, full queue, drops, armed and recycled timer slots.
        let (mut sim, a, b, l) =
            two_node_sim(Rate::from_mbps(15), SimDuration::from_millis(5), 4000);
        for i in 0..6 {
            sim.core().send_on(l, pkt(a, b, 1200 + i as u32, i));
            let id = sim.core().set_timer(a, SimDuration::from_millis(1 + i), i);
            if i % 2 == 0 {
                sim.core().cancel_timer(id);
            }
        }
        sim.run_until(SimTime::ZERO + SimDuration::from_micros(1500));
        sim.core().rng.next_u64();
        let core = sim.core();
        assert!(core.timers.live() > 0 && core.queue_stats(l).dropped > 0);
        assert_roundtrip(&core.now);
        assert_roundtrip(&core.rng);
        assert_roundtrip(&core.timers);
        assert_roundtrip(&core.link_stats(l));
        assert_roundtrip(&core.queue_stats(l));
        let mut queued = 0;
        let body = &mut |_: &mut SnapWriter, m: &PacketMeta| {
            assert_roundtrip(core.packets.get(m.handle));
            queued += 1;
        };
        core.links[0].queue.save(&mut SnapWriter::new(), body);
        assert!(queued > 0);
    }

    #[test]
    fn timers_fire_in_order_and_cancel_works() {
        let mut sim = Simulator::new(0);
        let a = sim.add_node(recorder());
        sim.core().set_timer(a, SimDuration::from_millis(5), 50);
        let to_cancel = sim.core().set_timer(a, SimDuration::from_millis(1), 10);
        sim.core().set_timer(a, SimDuration::from_millis(3), 30);
        sim.core().cancel_timer(to_cancel);
        sim.run_to_completion(100);
        let rec = sim.node_as::<Recorder>(a).unwrap();
        let tokens: Vec<u64> = rec.timers.iter().map(|t| t.1).collect();
        assert_eq!(tokens, vec![30, 50]);
    }

    #[test]
    fn same_instant_events_fire_in_scheduling_order() {
        let mut sim = Simulator::new(0);
        let a = sim.add_node(recorder());
        for token in [3, 1, 2] {
            sim.core().set_timer(a, SimDuration::from_millis(7), token);
        }
        sim.run_to_completion(100);
        let rec = sim.node_as::<Recorder>(a).unwrap();
        let tokens: Vec<u64> = rec.timers.iter().map(|t| t.1).collect();
        assert_eq!(tokens, vec![3, 1, 2]);
    }

    #[test]
    fn run_until_stops_at_horizon() {
        let mut sim = Simulator::new(0);
        let a = sim.add_node(recorder());
        sim.core().set_timer(a, SimDuration::from_millis(10), 1);
        sim.core().set_timer(a, SimDuration::from_millis(20), 2);
        sim.run_until(SimTime::ZERO + SimDuration::from_millis(15));
        {
            let rec = sim.node_as::<Recorder>(a).unwrap();
            assert_eq!(rec.timers.len(), 1);
        }
        sim.run_to_completion(10);
        let rec = sim.node_as::<Recorder>(a).unwrap();
        assert_eq!(rec.timers.len(), 2);
    }

    #[test]
    fn wire_loss_drops_packets() {
        let mut sim = Simulator::new(42);
        let a = sim.add_node(recorder());
        let b = sim.add_node(recorder());
        let l = sim.add_link(
            LinkSpec::drop_tail(a, b, Rate::from_gbps(1), SimDuration::ZERO, 10_000_000)
                .with_loss(crate::loss::LossModel::Bernoulli { p: 0.5 }),
        );
        for i in 0..1000 {
            sim.core().send_on(l, pkt(a, b, 100, i));
        }
        sim.run_to_completion(100_000);
        let delivered = sim.node_as::<Recorder>(b).unwrap().delivered.len();
        assert!(delivered > 350 && delivered < 650, "delivered {delivered}");
        assert_eq!(sim.link_stats(l).wire_lost as usize, 1000 - delivered);
    }

    #[test]
    fn identical_seeds_identical_runs() {
        let run = |seed: u64| {
            let mut sim = Simulator::new(seed);
            let a = sim.add_node(recorder());
            let b = sim.add_node(recorder());
            // Queue sized for the whole burst, so every packet reaches the
            // wire-loss draw: 200 Bernoulli draws make two seeds' delivery
            // sets collide with probability ~0.82^200.
            let l = sim.add_link(
                LinkSpec::drop_tail(
                    a,
                    b,
                    Rate::from_mbps(10),
                    SimDuration::from_millis(1),
                    250_000,
                )
                .with_loss(crate::loss::LossModel::Bernoulli { p: 0.1 }),
            );
            for i in 0..200 {
                sim.core().send_on(l, pkt(a, b, 1000, i));
            }
            sim.run_to_completion(10_000);
            sim.node_as::<Recorder>(b).unwrap().delivered.clone()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn tracer_sees_drops() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let drops = Rc::new(RefCell::new(0u32));
        let drops2 = drops.clone();
        let (mut sim, a, b, l) = two_node_sim(Rate::from_mbps(1), SimDuration::ZERO, 1500);
        sim.set_tracer(Box::new(move |_, ev| {
            if matches!(ev, TraceEvent::QueueDrop { .. }) {
                *drops2.borrow_mut() += 1;
            }
        }));
        for i in 0..4 {
            sim.core().send_on(l, pkt(a, b, 1500, i));
        }
        sim.run_to_completion(1000);
        assert_eq!(*drops.borrow(), 2);
    }
}

#[cfg(test)]
mod timer_tests {
    use super::*;
    use crate::time::Rate;
    use std::any::Any;

    /// Returns every packet it gets and restarts its RTO as it does so, the
    /// way a sender restarts it on each ACK that makes progress.
    struct Restarter {
        out: LinkId,
        rto: Option<TimerId>,
        restarts: u64,
        fired: u64,
    }

    impl Node<()> for Restarter {
        fn on_packet(&mut self, pkt: Packet<()>, ctx: &mut Ctx<'_, ()>) {
            if let Some(id) = self.rto.take() {
                ctx.cancel_timer(id);
            }
            self.rto = Some(ctx.set_timer(SimDuration::from_secs(1), 0));
            self.restarts += 1;
            ctx.send(
                self.out,
                Packet::new(pkt.flow, pkt.dst, pkt.src, pkt.size, ()),
            );
        }
        fn on_timer(&mut self, _id: TimerId, _token: u64, _ctx: &mut Ctx<'_, ()>) {
            self.fired += 1;
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn a_million_rto_restarts_leave_the_queue_at_its_live_size() {
        // Sixteen packets circulate between two nodes 50 us apart, and each
        // arrival restarts that node's 1 s RTO: 20,000 restarts per
        // simulated second per node. One queue entry per arming would be
        // 40,000 pending at any instant; one wake-up per slot is 2.
        const IN_FLIGHT: u64 = 16;
        const RESTARTS: u64 = 1_000_000;
        let mut sim: Simulator<()> = Simulator::new(0);
        let node = |out| Restarter {
            out: LinkId(out),
            rto: None,
            restarts: 0,
            fired: 0,
        };
        let a = sim.add_node(Box::new(node(0)));
        let b = sim.add_node(Box::new(node(1)));
        let delay = SimDuration::from_micros(50);
        let ab = sim.add_link(LinkSpec::drop_tail(
            a,
            b,
            Rate::from_gbps(10),
            delay,
            1 << 20,
        ));
        sim.add_link(LinkSpec::drop_tail(
            b,
            a,
            Rate::from_gbps(10),
            delay,
            1 << 20,
        ));
        for i in 0..IN_FLIGHT {
            let pkt = Packet::new(crate::packet::FlowId(i), a, b, 1000, ());
            sim.core().send_on(ab, pkt);
        }
        let restarts = |sim: &Simulator<()>| {
            [a, b]
                .iter()
                .map(|&n| sim.node_as::<Restarter>(n).unwrap().restarts)
                .sum::<u64>()
        };
        let mut max_pending = 0;
        while restarts(&sim) < RESTARTS {
            for _ in 0..1000 {
                assert!(sim.step());
            }
            let core = sim.core();
            let live = core.live_timer_count() + core.live_packets();
            assert!(
                core.pending_events() <= 2 * live + 64,
                "{} entries pending for {live} live timers and packets",
                core.pending_events()
            );
            max_pending = max_pending.max(core.pending_events());
        }
        assert!(max_pending >= IN_FLIGHT as usize);
        assert_eq!(sim.core().live_packets(), IN_FLIGHT as usize);
        // Every RTO was restarted in time; the wake-ups that found a later
        // deadline moved on, none of them was dropped.
        let fired: u64 = [a, b]
            .iter()
            .map(|&n| sim.node_as::<Restarter>(n).unwrap().fired)
            .sum();
        assert_eq!((fired, sim.dead_timer_pops()), (0, 0));
    }
}
