//! The receive side of a connection.
//!
//! Identical for every scheme (the paper implements all mechanisms over UDT
//! with selective ACKs and only varies the sender): ACK every arriving data
//! segment immediately (no delayed ACKs — Halfback's ROPR is clocked by the
//! per-packet ACK stream), advertise a fixed 141 KB window, echo transmit
//! timestamps, and answer PCP probes with receive timestamps.

use crate::rangeset::RangeSet;
use crate::wire::{
    segment_count, AckHeader, DataHeader, Header, ProbeAckHeader, ProbeHeader, SackBlocks, SegId,
    CTRL_WIRE_BYTES, DEFAULT_FCW_BYTES,
};
use netsim::{FlowId, NodeId, Packet, SimTime};

/// Receive-side record of one flow.
#[derive(Debug)]
pub struct ReceiverConn {
    flow: FlowId,
    peer: NodeId,
    local: NodeId,
    total_segs: u32,
    total_bytes: u64,
    window: u32,
    received: RangeSet,
    cum: SegId,
    /// Time the first SYN arrived.
    pub syn_at: SimTime,
    /// Time the flow became fully received, if it has.
    pub complete_at: Option<SimTime>,
    /// Distinct payload bytes delivered so far.
    pub delivered_bytes: u64,
    /// Data packets that duplicated already-received segments.
    pub dup_segments: u64,
    /// Total data packets received.
    pub data_packets: u64,
    /// Optional arrival log: (time, segment, transmission class) per data
    /// packet, in arrival order (the Fig. 3 timeline view). Enabled via
    /// [`crate::host::Host::log_arrivals`].
    pub arrivals: Option<Vec<(SimTime, SegId, crate::wire::SendClass)>>,
}

// The arrival log is debug-only instrumentation and does not travel
// (open-loop service runs never enable it): a restored receiver starts with
// logging off.
netsim::snap_struct!(ReceiverConn {
    flow,
    peer,
    local,
    total_segs,
    total_bytes,
    window,
    received,
    cum,
    syn_at,
    complete_at,
    delivered_bytes,
    dup_segments,
    data_packets;
    arrivals,
});

impl ReceiverConn {
    /// Advertised window for bulk transfers (window scaling in effect; lets
    /// a long background flow actually fill large router buffers, which is
    /// what produces the bufferbloat the Fig. 10 sweep measures).
    pub const BULK_FCW_BYTES: u32 = 2_000_000;
    /// Flows above this size advertise [`Self::BULK_FCW_BYTES`].
    pub const BULK_THRESHOLD_BYTES: u64 = 2_000_000;

    /// Create receiver state upon a SYN.
    pub fn new(flow: FlowId, local: NodeId, peer: NodeId, flow_bytes: u64, now: SimTime) -> Self {
        ReceiverConn {
            flow,
            peer,
            local,
            total_segs: segment_count(flow_bytes),
            total_bytes: flow_bytes,
            window: if flow_bytes > Self::BULK_THRESHOLD_BYTES {
                Self::BULK_FCW_BYTES
            } else {
                DEFAULT_FCW_BYTES
            },
            received: RangeSet::new(),
            cum: 0,
            syn_at: now,
            complete_at: None,
            dup_segments: 0,
            delivered_bytes: 0,
            data_packets: 0,
            arrivals: None,
        }
    }

    /// The flow id.
    pub fn flow(&self) -> FlowId {
        self.flow
    }

    /// Total payload size of the flow.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// True once every segment has arrived.
    pub fn complete(&self) -> bool {
        self.cum >= self.total_segs
    }

    /// Cumulative receive point: all segments `< cum` have arrived.
    pub fn cum(&self) -> SegId {
        self.cum
    }

    /// The SYN-ACK reply (also used for retransmitted SYNs).
    pub fn syn_ack(&self) -> Packet<Header> {
        Packet::new(
            self.flow,
            self.local,
            self.peer,
            CTRL_WIRE_BYTES,
            Header::SynAck {
                window: self.window,
            },
        )
    }

    /// Process a data segment; returns the ACK to send back.
    pub fn on_data(
        &mut self,
        hdr: &DataHeader,
        pkt_sent_at: SimTime,
        now: SimTime,
    ) -> Packet<Header> {
        self.data_packets += 1;
        if let Some(log) = self.arrivals.as_mut() {
            log.push((now, hdr.seg, hdr.class));
        }
        let seg = hdr.seg;
        if seg < self.total_segs {
            if self.received.insert(seg) {
                self.delivered_bytes +=
                    crate::wire::seg_payload_bytes(self.total_bytes, seg) as u64;
            } else {
                self.dup_segments += 1;
            }
            let new_cum = self.received.first_missing_from(self.cum);
            if new_cum > self.cum {
                self.cum = new_cum;
            }
            if self.complete() && self.complete_at.is_none() {
                self.complete_at = Some(now);
            }
        }
        let ack = AckHeader {
            cum: self.cum,
            sack: self.sack_blocks(seg),
            for_seg: seg,
            echo_tx_time: pkt_sent_at,
            window: self.window,
        };
        Packet::new(
            self.flow,
            self.local,
            self.peer,
            CTRL_WIRE_BYTES,
            Header::Ack(ack),
        )
    }

    /// Answer a PCP probe with echoed timing.
    pub fn on_probe(
        &self,
        hdr: &ProbeHeader,
        pkt_sent_at: SimTime,
        now: SimTime,
    ) -> Packet<Header> {
        let pa = ProbeAckHeader {
            train: hdr.train,
            idx: hdr.idx,
            len: hdr.len,
            sent_at: pkt_sent_at,
            recv_at: now,
        };
        Packet::new(
            self.flow,
            self.local,
            self.peer,
            CTRL_WIRE_BYTES,
            Header::ProbeAck(pa),
        )
    }

    /// Build up to four SACK blocks: the block containing the segment that
    /// triggered this ACK first (most-recent-first, like real TCP), then the
    /// highest remaining blocks above the cumulative point.
    fn sack_blocks(&self, for_seg: SegId) -> SackBlocks {
        if self.cum >= self.total_segs {
            return SackBlocks::EMPTY;
        }
        // Single forward pass, no allocation: remember the block containing
        // `for_seg` plus a ring of the four highest blocks. Four slots
        // always suffice — if the triggering block is among the last four
        // it occupies one of the output slots anyway.
        let mut trig: Option<(SegId, SegId)> = None;
        let mut ring = [(0u32, 0u32); 4];
        let mut seen = 0usize;
        for (s, e) in self.received.ranges_within_iter(self.cum, self.total_segs) {
            if for_seg >= s && for_seg < e {
                trig = Some((s, e));
            }
            ring[seen % 4] = (s, e);
            seen += 1;
        }
        // Triggering block first (most-recent-first, like real TCP), then
        // the highest others descending.
        let mut blocks = [(0u32, 0u32); 4];
        let mut len = 0usize;
        if let Some(t) = trig {
            blocks[0] = t;
            len = 1;
        }
        for i in 0..seen.min(4) {
            if len >= 4 {
                break;
            }
            let blk = ring[(seen - 1 - i) % 4];
            if Some(blk) != trig {
                blocks[len] = blk;
                len += 1;
            }
        }
        SackBlocks::from_ranges(&blocks[..len])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::SendClass;

    fn data(seg: SegId) -> DataHeader {
        DataHeader {
            seg,
            class: SendClass::New,
        }
    }

    fn recv(n_bytes: u64) -> ReceiverConn {
        ReceiverConn::new(FlowId(1), NodeId(1), NodeId(0), n_bytes, SimTime::ZERO)
    }

    fn ack_of(pkt: &Packet<Header>) -> AckHeader {
        match pkt.payload {
            Header::Ack(a) => a,
            ref other => panic!("expected ACK, got {other:?}"),
        }
    }

    #[test]
    fn in_order_delivery_advances_cum() {
        let mut r = recv(5 * 1460);
        for seg in 0..5 {
            let ack = ack_of(&r.on_data(&data(seg), SimTime::ZERO, SimTime::ZERO));
            assert_eq!(ack.cum, seg + 1);
            assert!(ack.sack.is_empty());
        }
        assert!(r.complete());
        assert_eq!(r.delivered_bytes, 5 * 1460);
    }

    #[test]
    fn gap_generates_sack() {
        let mut r = recv(5 * 1460);
        r.on_data(&data(0), SimTime::ZERO, SimTime::ZERO);
        // Segment 1 missing; 2 arrives.
        let ack = ack_of(&r.on_data(&data(2), SimTime::ZERO, SimTime::ZERO));
        assert_eq!(ack.cum, 1);
        assert_eq!(ack.sack.ranges(), &[(2, 3)]);
        // 4 arrives: triggering block first, then the other.
        let ack = ack_of(&r.on_data(&data(4), SimTime::ZERO, SimTime::ZERO));
        assert_eq!(ack.cum, 1);
        assert_eq!(ack.sack.ranges()[0], (4, 5));
        assert!(ack.sack.ranges().contains(&(2, 3)));
        // Hole fills: cum jumps past contiguous SACKed range.
        let ack = ack_of(&r.on_data(&data(1), SimTime::ZERO, SimTime::ZERO));
        assert_eq!(ack.cum, 3);
    }

    #[test]
    fn duplicates_are_counted_and_still_acked() {
        let mut r = recv(3 * 1460);
        r.on_data(&data(0), SimTime::ZERO, SimTime::ZERO);
        let ack = ack_of(&r.on_data(&data(0), SimTime::ZERO, SimTime::ZERO));
        assert_eq!(ack.cum, 1);
        assert_eq!(r.dup_segments, 1);
        assert_eq!(r.delivered_bytes, 1460);
    }

    #[test]
    fn completion_timestamp_recorded_once() {
        let mut r = recv(2 * 1460);
        let t1 = SimTime::from_nanos(10);
        let t2 = SimTime::from_nanos(20);
        r.on_data(&data(0), SimTime::ZERO, t1);
        r.on_data(&data(1), SimTime::ZERO, t1);
        assert_eq!(r.complete_at, Some(t1));
        r.on_data(&data(1), SimTime::ZERO, t2);
        assert_eq!(r.complete_at, Some(t1), "completion time must not move");
    }

    #[test]
    fn echo_timestamp_passthrough() {
        let mut r = recv(1460);
        let sent = SimTime::from_nanos(123_456);
        let ack = ack_of(&r.on_data(&data(0), sent, SimTime::from_nanos(999_999)));
        assert_eq!(ack.echo_tx_time, sent);
    }

    #[test]
    fn probe_ack_echoes_times() {
        let r = recv(1460);
        let p = ProbeHeader {
            train: 2,
            idx: 1,
            len: 5,
        };
        let sent = SimTime::from_nanos(50);
        let now = SimTime::from_nanos(80);
        let pkt = r.on_probe(&p, sent, now);
        match pkt.payload {
            Header::ProbeAck(pa) => {
                assert_eq!(pa.train, 2);
                assert_eq!(pa.sent_at, sent);
                assert_eq!(pa.recv_at, now);
            }
            other => panic!("expected ProbeAck, got {other:?}"),
        }
    }

    #[test]
    fn out_of_range_segment_ignored_but_acked() {
        let mut r = recv(2 * 1460);
        let ack = ack_of(&r.on_data(&data(7), SimTime::ZERO, SimTime::ZERO));
        assert_eq!(ack.cum, 0);
        assert_eq!(r.delivered_bytes, 0);
    }

    #[test]
    fn sack_blocks_capped_at_four() {
        let mut r = recv(20 * 1460);
        // Create 6 separate holes: receive even segments 2,4,...,12.
        for seg in [2u32, 4, 6, 8, 10, 12] {
            r.on_data(&data(seg), SimTime::ZERO, SimTime::ZERO);
        }
        let ack = ack_of(&r.on_data(&data(14), SimTime::ZERO, SimTime::ZERO));
        assert_eq!(ack.sack.ranges().len(), 4);
        assert_eq!(ack.sack.ranges()[0], (14, 15), "triggering block first");
    }
}
