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
}

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
    data_packets,
});

/// What a host can be asked about one of its receivers, open or finished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReceiverView {
    /// Cumulative receive point: all segments `< cum` have arrived.
    pub cum: SegId,
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
}

/// A receiver whose last missing segment has arrived, cut down to what it
/// still does: answer a late duplicate with `cum = total` and no SACK,
/// answer a retransmitted SYN or a probe, and count the packet. The rest of
/// a complete [`ReceiverConn`] follows from the flow size — every segment
/// received, every byte delivered, the size rule's window — and the local
/// node is the host's, which every method takes.
#[derive(Debug)]
pub struct Finished {
    flow: FlowId,
    peer: NodeId,
    total_bytes: u64,
    syn_at: SimTime,
    complete_at: SimTime,
    dup_segments: u32,
    data_packets: u32,
}

netsim::snap_struct!(Finished {
    flow,
    peer,
    total_bytes,
    syn_at,
    complete_at,
    dup_segments,
    data_packets,
});

/// The window a receiver advertises for a flow of `flow_bytes`.
fn window_for(flow_bytes: u64) -> u32 {
    if flow_bytes > ReceiverConn::BULK_THRESHOLD_BYTES {
        ReceiverConn::BULK_FCW_BYTES
    } else {
        DEFAULT_FCW_BYTES
    }
}

/// A control packet from `local` back to `peer`.
fn reply(flow: FlowId, local: NodeId, peer: NodeId, hdr: Header) -> Packet<Header> {
    Packet::new(flow, local, peer, CTRL_WIRE_BYTES, hdr)
}

fn probe_ack(hdr: &ProbeHeader, pkt_sent_at: SimTime, now: SimTime) -> Header {
    Header::ProbeAck(ProbeAckHeader {
        train: hdr.train,
        idx: hdr.idx,
        len: hdr.len,
        sent_at: pkt_sent_at,
        recv_at: now,
    })
}

/// A counter of a finished record, which is 32 bits wide.
fn narrow(n: u64) -> Option<u32> {
    u32::try_from(n).ok()
}

fn bump(n: &mut u32) {
    *n = n
        .checked_add(1)
        .expect("a finished receiver's counter overflowed");
}

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
            window: window_for(flow_bytes),
            received: RangeSet::new(),
            cum: 0,
            syn_at: now,
            complete_at: None,
            dup_segments: 0,
            delivered_bytes: 0,
            data_packets: 0,
        }
    }

    /// The host-facing fields.
    pub fn view(&self) -> ReceiverView {
        ReceiverView {
            cum: self.cum,
            syn_at: self.syn_at,
            complete_at: self.complete_at,
            delivered_bytes: self.delivered_bytes,
            dup_segments: self.dup_segments,
            data_packets: self.data_packets,
        }
    }

    /// True when [`Self::finish`] loses nothing: the flow completed, every
    /// field a [`Finished`] leaves out is the one it derives, and both
    /// counters fit its 32 bits. A receiver completed by [`Self::on_data`]
    /// always is; one decoded from damaged bytes need not be.
    pub fn finishes_exactly(&self) -> bool {
        let n = self.total_segs;
        self.complete_at.is_some()
            && n == segment_count(self.total_bytes)
            && self.cum == n
            && self.received.len() == n as u64
            && self.received.iter_ranges().eq((n > 0).then_some((0, n)))
            && self.delivered_bytes == self.total_bytes
            && self.window == window_for(self.total_bytes)
            && narrow(self.dup_segments).is_some()
            && narrow(self.data_packets).is_some()
    }

    /// The compact record of a complete receiver.
    ///
    /// # Panics
    /// Unless [`Self::finishes_exactly`].
    pub fn finish(self) -> Finished {
        assert!(
            self.finishes_exactly(),
            "flow {}: only a complete receiver finishes",
            self.flow
        );
        Finished {
            flow: self.flow,
            peer: self.peer,
            total_bytes: self.total_bytes,
            syn_at: self.syn_at,
            complete_at: self.complete_at.expect("asserted complete"),
            dup_segments: narrow(self.dup_segments).expect("asserted to fit"),
            data_packets: narrow(self.data_packets).expect("asserted to fit"),
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

    /// The SYN-ACK reply (also used for retransmitted SYNs).
    pub fn syn_ack(&self) -> Packet<Header> {
        let window = self.window;
        reply(self.flow, self.local, self.peer, Header::SynAck { window })
    }

    /// Process a data segment; returns the ACK to send back.
    pub fn on_data(
        &mut self,
        hdr: &DataHeader,
        pkt_sent_at: SimTime,
        now: SimTime,
    ) -> Packet<Header> {
        self.data_packets += 1;
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
        reply(self.flow, self.local, self.peer, Header::Ack(ack))
    }

    /// Answer a PCP probe with echoed timing.
    pub fn on_probe(
        &self,
        hdr: &ProbeHeader,
        pkt_sent_at: SimTime,
        now: SimTime,
    ) -> Packet<Header> {
        let pa = probe_ack(hdr, pkt_sent_at, now);
        reply(self.flow, self.local, self.peer, pa)
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

impl Finished {
    /// The flow id.
    pub(crate) fn flow(&self) -> FlowId {
        self.flow
    }

    /// Time the flow became fully received.
    pub(crate) fn complete_at(&self) -> SimTime {
        self.complete_at
    }

    fn total_segs(&self) -> SegId {
        segment_count(self.total_bytes)
    }

    /// The host-facing fields, as the complete receiver reported them.
    pub fn view(&self) -> ReceiverView {
        ReceiverView {
            cum: self.total_segs(),
            syn_at: self.syn_at,
            complete_at: Some(self.complete_at),
            delivered_bytes: self.total_bytes,
            dup_segments: self.dup_segments.into(),
            data_packets: self.data_packets.into(),
        }
    }

    /// The SYN-ACK a retransmitted SYN gets from host `local`.
    pub fn syn_ack(&self, local: NodeId) -> Packet<Header> {
        let window = window_for(self.total_bytes);
        reply(self.flow, local, self.peer, Header::SynAck { window })
    }

    /// Count a late data segment at host `local` and ACK it: every segment
    /// is in, so the ACK carries `cum = total` and no SACK.
    pub fn on_data(
        &mut self,
        local: NodeId,
        hdr: &DataHeader,
        pkt_sent_at: SimTime,
    ) -> Packet<Header> {
        bump(&mut self.data_packets);
        let total_segs = self.total_segs();
        if hdr.seg < total_segs {
            bump(&mut self.dup_segments);
        }
        let ack = AckHeader {
            cum: total_segs,
            sack: SackBlocks::EMPTY,
            for_seg: hdr.seg,
            echo_tx_time: pkt_sent_at,
            window: window_for(self.total_bytes),
        };
        reply(self.flow, local, self.peer, Header::Ack(ack))
    }

    /// Answer a PCP probe at host `local` with echoed timing.
    pub fn on_probe(
        &self,
        local: NodeId,
        hdr: &ProbeHeader,
        pkt_sent_at: SimTime,
        now: SimTime,
    ) -> Packet<Header> {
        reply(
            self.flow,
            local,
            self.peer,
            probe_ack(hdr, pkt_sent_at, now),
        )
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

    /// Two receivers driven to completion, one of them then finished, get
    /// the same late traffic — duplicates of the first, a middle and the
    /// last segment, segments past the end, a retransmitted SYN, a probe —
    /// and must answer and report alike; the finished record comes back
    /// from a checkpoint as it went in. The flow sizes cover a one-segment
    /// flow and one on the bulk window.
    #[test]
    fn finished_receiver_answers_like_the_open_one() {
        assert!(std::mem::size_of::<Finished>() <= 48);
        let at = SimTime::from_nanos;
        let local = NodeId(1);
        let bulk = ReceiverConn::BULK_THRESHOLD_BYTES + 5_000;
        for (bytes, window) in [
            (700, DEFAULT_FCW_BYTES),
            (bulk, ReceiverConn::BULK_FCW_BYTES),
        ] {
            let n = segment_count(bytes);
            let drive = || {
                let mut r = recv(bytes);
                r.on_data(&data(n - 1), at(1), at(2));
                for seg in 0..n {
                    r.on_data(&data(seg), at(3), at(4 + seg as u64));
                }
                assert!(r.finishes_exactly());
                r
            };
            let (mut open, mut done) = (drive(), drive().finish());
            let alike = |open: &ReceiverConn, done: &Finished| {
                assert_eq!(open.view(), done.view(), "{bytes} B");
                let back = netsim::snap::assert_roundtrip(done);
                assert_eq!(back.view(), done.view(), "{bytes} B");
            };
            alike(&open, &done);
            for (k, seg) in [0, n / 2, n - 1, n, n + 3].into_iter().enumerate() {
                let (sent, now) = (at(10_000 + k as u64), at(20_000 + k as u64));
                let a = open.on_data(&data(seg), sent, now);
                let b = done.on_data(local, &data(seg), sent);
                assert_eq!(
                    format!("{a:?}"),
                    format!("{b:?}"),
                    "{bytes} B, segment {seg}"
                );
                assert_eq!(ack_of(&b).window, window);
                alike(&open, &done);
            }
            let (a, b) = (open.syn_ack(), done.syn_ack(local));
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
            assert!(matches!(b.payload, Header::SynAck { window: w } if w == window));
            let p = ProbeHeader {
                train: 1,
                idx: 2,
                len: 3,
            };
            let a = open.on_probe(&p, at(30_000), at(30_500));
            let b = done.on_probe(local, &p, at(30_000), at(30_500));
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
            alike(&open, &done);
            let counts = (done.view().dup_segments, done.view().data_packets);
            assert_eq!(counts, (4, n as u64 + 6), "{bytes} B");
        }
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
