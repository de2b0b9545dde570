//! Router queues.
//!
//! The paper's testbed uses drop-tail FIFO queues sized in bytes (Fig. 4:
//! 115 KB, the sender–receiver BDP; Fig. 10 sweeps 10–600 KB). [`DropTail`]
//! is the workhorse. [`CoDel`] is provided as an extension for the
//! bufferbloat discussion in §6 (AQM is "fully complementary" to Halfback —
//! the ablation bench exercises it).
//!
//! Queues store [`PacketMeta`] — a `Copy` handle-plus-accounting record —
//! not packets: the packet bodies stay parked in the engine's
//! [`PacketArena`](crate::packet::PacketArena), so an enqueue/dequeue cycle
//! moves four words regardless of payload size, and the disciplines are not
//! generic over the payload type.
//!
//! Each discipline also saves and restores what it holds for an engine
//! snapshot ([`QueueDiscipline::save`]/[`QueueDiscipline::load`]): its
//! packets front to back, with whatever it keeps beside each one, and its
//! counters and control state. The bodies go through closures the engine
//! passes in, which inline them from the arena and park them again, so a
//! queue never sees a payload.

use crate::packet::PacketMeta;
use crate::snap::{SnapError, SnapReader, SnapWriter};
use crate::time::{SimDuration, SimTime};
use std::collections::VecDeque;

/// Writes the body of a queued packet into a snapshot (the engine inlines
/// it from its arena).
pub type SaveBody<'a> = dyn FnMut(&mut SnapWriter, &PacketMeta) + 'a;
/// Reads a packet body written by [`SaveBody`], parks it, and returns its
/// record with a handle that is current in the restored engine.
pub type LoadBody<'a> = dyn FnMut(&mut SnapReader<'_>) -> Result<PacketMeta, SnapError> + 'a;

/// Statistics kept by every queue.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Packets accepted into the queue.
    pub enqueued: u64,
    /// Packets handed to the link.
    pub dequeued: u64,
    /// Packets dropped because the queue was full (or AQM-marked).
    pub dropped: u64,
    /// Bytes dropped.
    pub dropped_bytes: u64,
    /// High-water mark of queued bytes.
    pub max_backlog_bytes: u64,
    /// Packets larger than the byte capacity admitted into an empty queue
    /// (standard drop-tail semantics; prevents sub-MTU buffers from
    /// blackholing every packet).
    pub oversized_admitted: u64,
}

crate::snap_struct!(QueueStats {
    enqueued,
    dequeued,
    dropped,
    dropped_bytes,
    max_backlog_bytes,
    oversized_admitted,
});

/// Outcome of offering a packet to a queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Packet was queued.
    Accepted,
    /// Packet was dropped.
    Dropped,
}

/// A queue discipline: accepts packets, releases them in some order,
/// may drop.
pub trait QueueDiscipline: std::fmt::Debug {
    /// Offer a packet at `now`; the queue either keeps it or drops it.
    /// On [`Verdict::Dropped`] the caller still owns the packet (and must
    /// release its arena slot).
    fn enqueue(&mut self, pkt: PacketMeta, now: SimTime) -> Verdict;
    /// Remove the next packet to transmit, if any. Disciplines that drop at
    /// dequeue time (AQM) push the victims into `dropped` — ownership of
    /// those transfers to the caller, which must release their arena slots.
    fn dequeue(&mut self, now: SimTime, dropped: &mut Vec<PacketMeta>) -> Option<PacketMeta>;
    /// Bytes currently queued.
    fn backlog_bytes(&self) -> u64;
    /// Whether no packet is queued (a zero-byte packet counts).
    fn is_empty(&self) -> bool;
    /// Statistics snapshot.
    fn stats(&self) -> QueueStats;
    /// Write everything the queue holds into an engine snapshot: its
    /// packets front to back, each body through `body`, and its counters
    /// and control state. Capacity and parameters are configuration and
    /// come back from the topology rebuild.
    fn save(&self, w: &mut SnapWriter, body: &mut SaveBody<'_>);
    /// Overlay state written by [`QueueDiscipline::save`] onto this freshly
    /// built queue; `body` reads and re-parks each packet.
    fn load(&mut self, r: &mut SnapReader<'_>, body: &mut LoadBody<'_>) -> Result<(), SnapError>;
}

/// Byte-limited drop-tail FIFO.
#[derive(Debug)]
pub struct DropTail {
    capacity_bytes: u64,
    backlog_bytes: u64,
    queue: VecDeque<PacketMeta>,
    stats: QueueStats,
}

impl DropTail {
    /// Create a queue holding at most `capacity_bytes` of packets.
    pub fn new(capacity_bytes: u64) -> Self {
        assert!(capacity_bytes > 0, "queue capacity must be positive");
        DropTail {
            capacity_bytes,
            backlog_bytes: 0,
            queue: VecDeque::new(),
            stats: QueueStats::default(),
        }
    }
}

impl QueueDiscipline for DropTail {
    fn enqueue(&mut self, pkt: PacketMeta, _now: SimTime) -> Verdict {
        let sz = pkt.size as u64;
        if self.backlog_bytes + sz > self.capacity_bytes {
            // A packet bigger than the whole buffer still gets service
            // when the queue is empty — otherwise a capacity below one
            // MTU would silently blackhole every packet forever.
            if self.queue.is_empty() {
                self.stats.oversized_admitted += 1;
            } else {
                self.stats.dropped += 1;
                self.stats.dropped_bytes += sz;
                return Verdict::Dropped;
            }
        }
        self.backlog_bytes += sz;
        self.stats.enqueued += 1;
        self.stats.max_backlog_bytes = self.stats.max_backlog_bytes.max(self.backlog_bytes);
        self.queue.push_back(pkt);
        Verdict::Accepted
    }

    fn dequeue(&mut self, _now: SimTime, _dropped: &mut Vec<PacketMeta>) -> Option<PacketMeta> {
        let pkt = self.queue.pop_front()?;
        self.backlog_bytes -= pkt.size as u64;
        self.stats.dequeued += 1;
        Some(pkt)
    }

    fn backlog_bytes(&self) -> u64 {
        self.backlog_bytes
    }

    fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    fn stats(&self) -> QueueStats {
        self.stats
    }

    fn save(&self, w: &mut SnapWriter, body: &mut SaveBody<'_>) {
        w.seq_len(self.queue.len());
        self.queue.iter().for_each(|m| body(w, m));
        w.put(&self.stats);
    }

    fn load(&mut self, r: &mut SnapReader<'_>, body: &mut LoadBody<'_>) -> Result<(), SnapError> {
        self.queue = (0..r.seq_len()?)
            .map(|_| body(r))
            .collect::<Result<_, _>>()?;
        self.backlog_bytes = self.queue.iter().map(|m| m.size as u64).sum();
        self.stats = r.get()?;
        Ok(())
    }
}

/// CoDel's target sojourn time.
const CODEL_TARGET: SimDuration = SimDuration::from_millis(5);
/// CoDel's interval: how long the sojourn must stay above target before
/// dropping starts, and the base of the drop spacing.
const CODEL_INTERVAL: SimDuration = SimDuration::from_millis(100);

/// CoDel active queue management (simplified, per the CoDel paper's
/// pseudocode): packets carry an enqueue timestamp; if the *sojourn time*
/// of dequeued packets stays above the 5 ms target for at least the 100 ms
/// interval, CoDel enters a dropping state, dropping one packet and
/// shrinking the next drop interval by `1/sqrt(count)`.
#[derive(Debug)]
pub struct CoDel {
    capacity_bytes: u64,
    backlog_bytes: u64,
    queue: VecDeque<(PacketMeta, SimTime)>,
    stats: QueueStats,
    // CoDel state
    first_above_time: Option<SimTime>,
    drop_next: SimTime,
    drop_count: u32,
    dropping: bool,
}

impl CoDel {
    /// Create a CoDel queue with the standard 5 ms target / 100 ms interval.
    pub fn new(capacity_bytes: u64) -> Self {
        assert!(capacity_bytes > 0, "queue capacity must be positive");
        CoDel {
            capacity_bytes,
            backlog_bytes: 0,
            queue: VecDeque::new(),
            stats: QueueStats::default(),
            first_above_time: None,
            drop_next: SimTime::ZERO,
            drop_count: 0,
            dropping: false,
        }
    }

    // Beside the queue and its counters, a snapshot carries the control
    // state: a restored CoDel picks up mid-episode.
    crate::snap_fields!(fn save_control, load_control {
        stats,
        first_above_time,
        drop_next,
        drop_count,
        dropping,
    });

    fn control_law(&self, t: SimTime) -> SimTime {
        let shrink = (self.drop_count.max(1) as f64).sqrt();
        t + CODEL_INTERVAL.mul_f64(1.0 / shrink)
    }

    /// Pop head and decide whether its sojourn time keeps us "above target".
    fn do_dequeue(&mut self, now: SimTime) -> (Option<PacketMeta>, bool) {
        match self.queue.pop_front() {
            None => {
                self.first_above_time = None;
                (None, false)
            }
            Some((pkt, enq)) => {
                self.backlog_bytes -= pkt.size as u64;
                let sojourn = now.saturating_since(enq);
                if sojourn < CODEL_TARGET || self.backlog_bytes < 1500 {
                    self.first_above_time = None;
                    (Some(pkt), false)
                } else {
                    let fat = *self.first_above_time.get_or_insert(now + CODEL_INTERVAL);
                    (Some(pkt), now >= fat)
                }
            }
        }
    }

    /// Account a dequeue-time drop and surrender the victim to the caller.
    fn drop_victim(&mut self, victim: PacketMeta, dropped: &mut Vec<PacketMeta>) {
        self.stats.dropped += 1;
        self.stats.dropped_bytes += victim.size as u64;
        dropped.push(victim);
    }
}

impl QueueDiscipline for CoDel {
    fn enqueue(&mut self, pkt: PacketMeta, now: SimTime) -> Verdict {
        let sz = pkt.size as u64;
        if self.backlog_bytes + sz > self.capacity_bytes {
            self.stats.dropped += 1;
            self.stats.dropped_bytes += sz;
            return Verdict::Dropped;
        }
        self.backlog_bytes += sz;
        self.stats.enqueued += 1;
        self.stats.max_backlog_bytes = self.stats.max_backlog_bytes.max(self.backlog_bytes);
        self.queue.push_back((pkt, now));
        Verdict::Accepted
    }

    fn dequeue(&mut self, now: SimTime, dropped: &mut Vec<PacketMeta>) -> Option<PacketMeta> {
        let (mut pkt, mut above) = self.do_dequeue(now);
        if self.dropping {
            if !above {
                self.dropping = false;
            } else {
                while self.dropping && now >= self.drop_next {
                    // Drop the packet we hold and pull the next one.
                    if let Some(victim) = pkt.take() {
                        self.drop_victim(victim, dropped);
                    }
                    self.drop_count += 1;
                    let (next, still_above) = self.do_dequeue(now);
                    pkt = next;
                    above = still_above;
                    if !above {
                        self.dropping = false;
                    } else {
                        self.drop_next = self.control_law(self.drop_next);
                    }
                }
            }
        } else if above
            && (now.saturating_since(self.drop_next) < CODEL_INTERVAL || self.drop_count > 0)
        {
            // Enter dropping state.
            if let Some(victim) = pkt.take() {
                self.drop_victim(victim, dropped);
            }
            let (next, _) = self.do_dequeue(now);
            pkt = next;
            self.dropping = true;
            self.drop_count = if self.drop_count > 2 {
                self.drop_count - 2
            } else {
                1
            };
            self.drop_next = self.control_law(now);
        } else if above {
            if let Some(victim) = pkt.take() {
                self.drop_victim(victim, dropped);
            }
            let (next, _) = self.do_dequeue(now);
            pkt = next;
            self.dropping = true;
            self.drop_count = 1;
            self.drop_next = self.control_law(now);
        }
        if pkt.is_some() {
            self.stats.dequeued += 1;
        }
        pkt
    }

    fn backlog_bytes(&self) -> u64 {
        self.backlog_bytes
    }

    fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    fn stats(&self) -> QueueStats {
        self.stats
    }

    fn save(&self, w: &mut SnapWriter, body: &mut SaveBody<'_>) {
        w.seq_len(self.queue.len());
        for (m, enqueued_at) in &self.queue {
            body(w, m);
            w.put(enqueued_at);
        }
        self.save_control(w);
    }

    fn load(&mut self, r: &mut SnapReader<'_>, body: &mut LoadBody<'_>) -> Result<(), SnapError> {
        self.queue = (0..r.seq_len()?)
            .map(|_| Ok((body(r)?, r.get()?)))
            .collect::<Result<_, SnapError>>()?;
        self.backlog_bytes = self.queue.iter().map(|(m, _)| m.size as u64).sum();
        self.load_control(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{FlowId, NodeId, Packet, PacketArena};

    /// Park a packet of `size` bytes in `arena` and return its queue record.
    fn pkt(arena: &mut PacketArena<u8>, size: u32) -> PacketMeta {
        let h = arena.alloc(Packet::new(FlowId(0), NodeId(0), NodeId(1), size, 0));
        arena.meta(h)
    }

    #[test]
    fn droptail_fifo_order() {
        let mut arena = PacketArena::new();
        let mut none = Vec::new();
        let mut q = DropTail::new(10_000);
        let mut handles = Vec::new();
        for _ in 0..3 {
            let m = pkt(&mut arena, 1000);
            handles.push(m.handle);
            assert_eq!(q.enqueue(m, SimTime::ZERO), Verdict::Accepted);
        }
        for h in handles {
            assert_eq!(q.dequeue(SimTime::ZERO, &mut none).unwrap().handle, h);
        }
        assert!(q.dequeue(SimTime::ZERO, &mut none).is_none());
        assert!(none.is_empty(), "drop-tail never drops at dequeue");
    }

    #[test]
    fn droptail_drops_when_full() {
        let mut arena = PacketArena::new();
        let mut none = Vec::new();
        let mut q = DropTail::new(2500);
        assert_eq!(
            q.enqueue(pkt(&mut arena, 1500), SimTime::ZERO),
            Verdict::Accepted
        );
        assert_eq!(
            q.enqueue(pkt(&mut arena, 1000), SimTime::ZERO),
            Verdict::Accepted
        );
        assert_eq!(
            q.enqueue(pkt(&mut arena, 1), SimTime::ZERO),
            Verdict::Dropped
        );
        assert_eq!(q.stats().dropped, 1);
        assert_eq!(q.backlog_bytes(), 2500);
        // Draining frees space again.
        q.dequeue(SimTime::ZERO, &mut none).unwrap();
        assert_eq!(
            q.enqueue(pkt(&mut arena, 1500), SimTime::ZERO),
            Verdict::Accepted
        );
    }

    #[test]
    fn droptail_byte_conservation() {
        let mut arena = PacketArena::new();
        let mut none = Vec::new();
        let mut q = DropTail::new(100_000);
        let mut in_bytes = 0u64;
        for i in 0..50 {
            let size = 100 + (i * 37) % 1400;
            if q.enqueue(pkt(&mut arena, size), SimTime::ZERO) == Verdict::Accepted {
                in_bytes += size as u64;
            }
        }
        let mut out_bytes = 0u64;
        while let Some(p) = q.dequeue(SimTime::ZERO, &mut none) {
            out_bytes += p.size as u64;
        }
        assert_eq!(in_bytes, out_bytes);
        assert_eq!(q.backlog_bytes(), 0);
    }

    #[test]
    fn droptail_high_water_mark() {
        let mut arena = PacketArena::new();
        let mut none = Vec::new();
        let mut q = DropTail::new(5000);
        q.enqueue(pkt(&mut arena, 1500), SimTime::ZERO);
        q.enqueue(pkt(&mut arena, 1500), SimTime::ZERO);
        q.dequeue(SimTime::ZERO, &mut none);
        q.enqueue(pkt(&mut arena, 500), SimTime::ZERO);
        assert_eq!(q.stats().max_backlog_bytes, 3000);
    }

    #[test]
    fn droptail_admits_oversized_packet_into_empty_queue() {
        // Capacity below one MTU: without the empty-queue exception every
        // 1500-byte packet would be dropped and the link would blackhole.
        let mut arena = PacketArena::new();
        let mut none = Vec::new();
        let mut q = DropTail::new(1000);
        assert_eq!(
            q.enqueue(pkt(&mut arena, 1500), SimTime::ZERO),
            Verdict::Accepted
        );
        assert_eq!(q.stats().oversized_admitted, 1);
        assert_eq!(q.backlog_bytes(), 1500);
        // A second packet sees a non-empty (over-full) queue and is dropped.
        assert_eq!(
            q.enqueue(pkt(&mut arena, 100), SimTime::ZERO),
            Verdict::Dropped
        );
        assert_eq!(q.stats().dropped, 1);
        // Draining restores service; the next oversized packet is admitted.
        assert_eq!(q.dequeue(SimTime::ZERO, &mut none).unwrap().size, 1500);
        assert_eq!(
            q.enqueue(pkt(&mut arena, 1500), SimTime::ZERO),
            Verdict::Accepted
        );
        assert_eq!(q.stats().oversized_admitted, 2);
        assert_eq!(q.stats().enqueued, 2);
    }

    #[test]
    fn codel_passes_traffic_below_target() {
        let mut arena = PacketArena::new();
        let mut drops = Vec::new();
        let mut q = CoDel::new(100_000);
        let mut t = SimTime::ZERO;
        // Light load: every packet dequeued 1 ms after enqueue (< 5 ms target).
        for _ in 0..100 {
            q.enqueue(pkt(&mut arena, 1500), t);
            t += SimDuration::from_millis(1);
            assert!(q.dequeue(t, &mut drops).is_some());
        }
        assert_eq!(q.stats().dropped, 0);
        assert!(drops.is_empty());
    }

    #[test]
    fn codel_drops_under_sustained_standing_queue() {
        let mut arena = PacketArena::new();
        let mut drops = Vec::new();
        let mut q = CoDel::new(1_000_000);
        // Build a large standing queue, then drain slowly: sojourn times far
        // above target for far longer than the interval.
        for _ in 0..400 {
            q.enqueue(pkt(&mut arena, 1500), SimTime::ZERO);
        }
        let mut t = SimTime::from_nanos(0);
        let mut got = 0;
        for _ in 0..400 {
            t += SimDuration::from_millis(10);
            if q.dequeue(t, &mut drops).is_some() {
                got += 1;
            }
            if q.backlog_bytes() == 0 {
                break;
            }
        }
        assert!(q.stats().dropped > 0, "CoDel never dropped: got {got}");
        // Every dequeue-time victim was surrendered to the caller, and the
        // ledger balances: enqueued = dequeued + dropped + still queued
        // (every packet is 1500 bytes).
        assert_eq!(drops.len() as u64, q.stats().dropped);
        let s = q.stats();
        assert_eq!(
            s.enqueued,
            s.dequeued + s.dropped + q.backlog_bytes() / 1500
        );
    }
}
