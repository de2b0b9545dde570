//! Point-to-point unidirectional links.
//!
//! A link serializes packets at a fixed [`Rate`], delays them by a fixed
//! propagation time, and feeds from a [`QueueDiscipline`] when busy. Random
//! wire loss (from a [`LossProcess`]) is applied after serialization,
//! modelling loss beyond the queue (e.g. WiFi corruption).
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
    /// Packets fully serialized onto the wire.
    pub tx_packets: u64,
    /// Bytes fully serialized onto the wire.
    pub tx_bytes: u64,
    /// Packets dropped by the random wire-loss process.
    pub wire_lost: u64,
    /// Packets rejected at offer time by a fault down-window.
    pub down_dropped: u64,
    /// Packets swallowed post-serialization by a fault blackhole window.
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
    pub(crate) busy: bool,
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
            stats: LinkStats::default(),
            faults: None,
        }
    }

    /// Apply any rate/delay fault steps due at `now` (lazy: the link only
    /// changes when it next touches a packet).
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

    /// Serialization time of a packet of `size` bytes on this link.
    pub(crate) fn tx_time(&self, size: u32) -> SimDuration {
        self.rate.transmission_time(size)
    }
}
