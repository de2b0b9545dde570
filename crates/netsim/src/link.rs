//! Point-to-point unidirectional links.
//!
//! A link serializes packets at a fixed [`Rate`], delays them by a fixed
//! propagation time, and feeds from a [`QueueDiscipline`] when busy. Random
//! wire loss (from a [`LossProcess`]) models loss beyond the queue (e.g.
//! WiFi corruption); it is decided when serialization starts, and a lost
//! packet still holds the link for its whole transmission time.
//!
//! Links never touch packet bodies: they move
//! [`PacketMeta`](crate::packet::PacketMeta) records whose handles point
//! into the engine's packet arena, so the whole link layer is
//! payload-agnostic and non-generic.

use crate::faults::FaultState;
use crate::loss::{LossModel, LossProcess};
use crate::packet::NodeId;
use crate::queue::{DropTail, QueueDiscipline};
use crate::time::{Rate, SimDuration, SimTime};

/// Configuration for one unidirectional link.
#[derive(Debug)]
pub struct LinkSpec {
    /// Node that transmits onto this link.
    pub src: NodeId,
    /// Node packets are delivered to.
    pub dst: NodeId,
    /// Serialization rate.
    pub rate: Rate,
    /// One-way propagation delay.
    pub delay: SimDuration,
    /// Queue discipline feeding the link.
    pub queue: Box<dyn QueueDiscipline>,
    /// Random wire loss model.
    pub loss: LossModel,
}

impl LinkSpec {
    /// Convenience constructor with a drop-tail queue of `buffer_bytes` and
    /// no random loss.
    pub fn drop_tail(
        src: NodeId,
        dst: NodeId,
        rate: Rate,
        delay: SimDuration,
        buffer_bytes: u64,
    ) -> Self {
        LinkSpec {
            src,
            dst,
            rate,
            delay,
            queue: Box::new(DropTail::new(buffer_bytes)),
            loss: LossModel::None,
        }
    }

    /// Replace the loss model.
    pub fn with_loss(mut self, loss: LossModel) -> Self {
        self.loss = loss;
        self
    }
}

/// Link transmission counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct LinkStats {
    /// Packets offered to the link (`forward_on` calls), before any drop.
    pub offered: u64,
    /// Packets whose serialization onto the wire started. A packet is
    /// counted when it leaves the queue for the wire, so mid-run the one
    /// in service is already here, not among the queued.
    pub tx_packets: u64,
    /// Bytes of the packets counted in `tx_packets`.
    pub tx_bytes: u64,
    /// Packets dropped by the random wire-loss process, counted when their
    /// serialization starts (the link stays busy for its whole length).
    pub wire_lost: u64,
    /// Packets rejected at offer time by a fault down-window.
    pub down_dropped: u64,
    /// Packets swallowed by a fault blackhole window open at the end of
    /// their serialization (counted at its start).
    pub blackholed: u64,
    /// Packets flagged corrupt by fault injection (dropped at the next node).
    pub corrupt_marked: u64,
    /// Extra delivered copies created by fault duplication.
    pub duplicated: u64,
    /// Packets delivered to this link's destination node (clean copies,
    /// including surviving duplicates). Counted per link so conservation
    /// oracles balance each link's books on multi-hop topologies.
    pub delivered: u64,
    /// Corrupt-marked packets dropped at this link's destination
    /// (checksum failure on arrival).
    pub corrupt_dropped: u64,
}

crate::snap_struct!(LinkStats {
    offered,
    tx_packets,
    tx_bytes,
    wire_lost,
    down_dropped,
    blackholed,
    corrupt_marked,
    duplicated,
    delivered,
    corrupt_dropped,
});

impl LinkStats {
    /// Packets this link failed to carry for non-queue reasons: wire loss,
    /// fault down-windows, and blackholes. Queue (congestion) drops are
    /// counted separately in [`QueueStats`](crate::queue::QueueStats).
    pub fn lost_total(&self) -> u64 {
        self.wire_lost + self.down_dropped + self.blackholed
    }
}

/// Runtime state of a link inside the engine.
pub(crate) struct LinkState {
    pub(crate) dst: NodeId,
    pub(crate) rate: Rate,
    pub(crate) delay: SimDuration,
    pub(crate) queue: Box<dyn QueueDiscipline>,
    pub(crate) loss: LossProcess,
    /// A packet waits behind the current transmission, and the
    /// `LinkFree` pushed for its end will take the next one. Offers queue
    /// while set.
    pub(crate) busy: bool,
    /// When the last transmission started ends: it is on the wire until
    /// `(busy_until, tx_seq)` in the engine's `(at, seq)` order has passed.
    pub(crate) busy_until: SimTime,
    /// The seq its end of transmission ranks by.
    pub(crate) tx_seq: u64,
    pub(crate) stats: LinkStats,
    /// Fault-injection state, if a spec was installed for this link.
    pub(crate) faults: Option<FaultState>,
}

impl LinkState {
    pub(crate) fn new(spec: LinkSpec) -> Self {
        LinkState {
            dst: spec.dst,
            rate: spec.rate,
            delay: spec.delay,
            queue: spec.queue,
            loss: LossProcess::new(spec.loss),
            busy: false,
            busy_until: SimTime::ZERO,
            tx_seq: 0,
            stats: LinkStats::default(),
            faults: None,
        }
    }

    /// Apply any rate/delay fault steps due at `now` (lazy: the link only
    /// changes when a serialization starts).
    pub(crate) fn apply_fault_steps(&mut self, now: SimTime) {
        if let Some(f) = self.faults.as_mut() {
            let (rate, delay) = f.step_updates(now);
            if let Some(r) = rate {
                self.rate = r;
            }
            if let Some(d) = delay {
                self.delay = d;
            }
        }
    }

    /// Whether a transmission holds the link at `(now, firing)`: the seq
    /// of the entry being fired, or, between runs, the next seq to be
    /// drawn. A transmission has ended once its end's position in the
    /// `(at, seq)` order has passed; strictly, so that a link never used,
    /// at `(0, 0)`, is idle at `(0, 0)`.
    #[inline]
    pub(crate) fn on_wire(&self, now: SimTime, firing: u64) -> bool {
        self.busy || (now, firing) < (self.busy_until, self.tx_seq)
    }

    /// Serialization time of a packet of `size` bytes on this link.
    pub(crate) fn tx_time(&self, size: u32) -> SimDuration {
        self.rate.transmission_time(size)
    }
}
