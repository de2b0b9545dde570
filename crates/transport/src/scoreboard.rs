//! Sender-side scoreboard: which segments are ACKed/SACKed, which are deemed
//! lost, and how many bytes are estimated to be in flight ("pipe").
//!
//! Loss detection follows SACK-based TCP (RFC 6675's DupThresh rule): an
//! unacknowledged segment is deemed lost once three segments above it have
//! been selectively acknowledged. A segment marked lost stays lost until it
//! is acknowledged; if its retransmission is lost too, recovery falls to the
//! RTO — exactly the failure mode the paper highlights for JumpStart's
//! bursty retransmissions.

use crate::rangeset::RangeSet;
use crate::wire::{seg_payload_bytes, AckHeader, SegId};
use netsim::snap::{Snap, SnapError, SnapReader, SnapWriter};
use std::ops::{Deref, DerefMut};

/// Duplicate-ACK (SACK-count) threshold for loss detection.
pub const DUP_THRESH: u64 = 3;

/// One byte per segment, inside the scoreboard itself for a flow of at most
/// [`Scoreboard::INLINE_SEGS`] segments and on the heap for a longer one.
/// Most flows are a few segments long, and the array was their scoreboard's
/// one unconditional allocation.
#[derive(Debug, Clone)]
enum PerSeg {
    Inline {
        len: u8,
        slots: [u8; Scoreboard::INLINE_SEGS],
    },
    Heap(Vec<u8>),
}

impl PerSeg {
    fn zeroed(len: usize) -> Self {
        if len <= Scoreboard::INLINE_SEGS {
            PerSeg::Inline {
                len: len as u8,
                slots: [0; Scoreboard::INLINE_SEGS],
            }
        } else {
            PerSeg::Heap(vec![0; len])
        }
    }
}

impl Deref for PerSeg {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        match self {
            PerSeg::Inline { len, slots } => &slots[..*len as usize],
            PerSeg::Heap(v) => v,
        }
    }
}

impl DerefMut for PerSeg {
    fn deref_mut(&mut self) -> &mut [u8] {
        match self {
            PerSeg::Inline { len, slots } => &mut slots[..*len as usize],
            PerSeg::Heap(v) => v,
        }
    }
}

/// Travels as the `Vec<u8>` it used to be.
impl Snap for PerSeg {
    fn save(&self, w: &mut SnapWriter) {
        w.seq_len(self.len());
        self.iter().for_each(|x| w.put(x));
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let bytes: Vec<u8> = r.get()?;
        let mut per_seg = PerSeg::zeroed(bytes.len());
        per_seg.copy_from_slice(&bytes);
        Ok(per_seg)
    }
}

/// What an incoming ACK changed.
#[derive(Debug, Clone, Default)]
pub struct AckOutcome {
    /// The cumulative ACK advanced.
    pub cum_advanced: bool,
    /// Payload bytes newly acknowledged (cumulatively or selectively).
    pub newly_acked_bytes: u64,
    /// Segments newly deemed lost by the DupThresh rule, ascending.
    pub newly_lost: Vec<SegId>,
    /// This ACK acknowledged nothing new (a pure duplicate).
    pub is_duplicate: bool,
}

/// Per-flow sender scoreboard.
#[derive(Debug, Clone)]
pub struct Scoreboard {
    total_bytes: u64,
    total_segs: u32,
    /// Next expected by the receiver: all segments `< cum` are delivered.
    cum: SegId,
    /// Selectively acknowledged segments above `cum`.
    sacked: RangeSet,
    /// Segments currently deemed lost (unacked, DupThresh exceeded or RTO).
    lost: RangeSet,
    /// Copies of each segment currently presumed in flight.
    outstanding: PerSeg,
    /// Whether each segment has ever been transmitted.
    sent_once: RangeSet,
    /// Segments transmitted more than once. The DupThresh rule must not
    /// re-mark these lost — the SACK count above them stays satisfied
    /// forever, so re-marking would retransmit on every ACK. If the
    /// retransmission is lost too, only the RTO recovers it (RFC 6675's
    /// behaviour, and exactly the JumpStart failure mode the paper
    /// describes: "the sender needs to wait until timeout when the
    /// retransmitted packets are lost").
    retransmitted: RangeSet,
    /// Estimated payload bytes in flight.
    pipe_bytes: u64,
    /// Highest segment ever transmitted, +1 (0 when nothing sent).
    high_sent: u32,
    /// Naive loss re-marking: each (re)transmission of a segment gets its
    /// own DupThresh chance — once three *further* segments are SACKed
    /// after a retransmission, the segment is deemed lost again and
    /// retransmitted again. This models JumpStart's fallback stack, whose
    /// "propensity to retransmit the same packets multiple times" the paper
    /// names as what makes it not safe (§2.2, §4.3.2, §4.3.3). Careful
    /// RFC 6675-style stacks never re-mark; only the RTO recovers a lost
    /// retransmission.
    naive_remarking: bool,
    /// Monotonic count of segments ever newly SACKed (never decreases,
    /// unlike the pruned `sacked` set).
    total_sacked_ever: u64,
    /// `total_sacked_ever` at each segment's most recent transmission. Only
    /// naive re-marking reads it; empty without.
    sacked_at_tx: Vec<u64>,
    /// Reused gap buffer for `on_ack`'s SACK-block walk (amortizes the
    /// per-ACK allocation away).
    sack_gap_scratch: Vec<(u32, u32)>,
}

netsim::snap_struct!(Scoreboard {
    total_bytes,
    total_segs,
    cum,
    sacked,
    lost,
    outstanding,
    sent_once,
    retransmitted,
    pipe_bytes,
    high_sent,
    naive_remarking,
    total_sacked_ever,
    sacked_at_tx;
    sack_gap_scratch,
});

impl Scoreboard {
    /// The longest flow, in segments, whose per-segment state lives inside
    /// the scoreboard: with its length and the enum's tag the inline array
    /// is four words, one more than the `Vec` header it stands in for.
    pub const INLINE_SEGS: usize = 30;

    /// New scoreboard for a flow of `total_bytes` split into `total_segs`.
    /// `naive_remarking` gives every retransmission of a segment its own
    /// DupThresh chance (JumpStart's fallback stack; see the field docs).
    pub fn new(total_bytes: u64, total_segs: u32, naive_remarking: bool) -> Self {
        Scoreboard {
            total_bytes,
            total_segs,
            cum: 0,
            sacked: RangeSet::new(),
            lost: RangeSet::new(),
            outstanding: PerSeg::zeroed(total_segs as usize),
            sent_once: RangeSet::new(),
            retransmitted: RangeSet::new(),
            pipe_bytes: 0,
            high_sent: 0,
            naive_remarking,
            total_sacked_ever: 0,
            sacked_at_tx: if naive_remarking {
                vec![0; total_segs as usize]
            } else {
                Vec::new()
            },
            sack_gap_scratch: Vec::new(),
        }
    }

    /// Total segments in the flow.
    pub fn total_segs(&self) -> u32 {
        self.total_segs
    }

    /// Total payload bytes in the flow.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Payload bytes of one segment.
    pub fn seg_bytes(&self, seg: SegId) -> u32 {
        seg_payload_bytes(self.total_bytes, seg)
    }

    /// Cumulative ACK point (all segments below are delivered).
    pub fn cum_ack(&self) -> SegId {
        self.cum
    }

    /// True when every segment is cumulatively acknowledged.
    pub fn complete(&self) -> bool {
        self.cum >= self.total_segs
    }

    /// Estimated payload bytes in flight.
    pub fn pipe_bytes(&self) -> u64 {
        self.pipe_bytes
    }

    /// Highest segment id ever sent plus one (0 = nothing sent yet).
    pub fn high_sent(&self) -> u32 {
        self.high_sent
    }

    /// Next segment that has never been transmitted, if any.
    pub fn next_unsent(&self) -> Option<SegId> {
        let v = self.sent_once.first_missing_from(0);
        (v < self.total_segs).then_some(v)
    }

    /// Is `seg` covered (cumulatively or selectively acknowledged)?
    pub fn is_covered(&self, seg: SegId) -> bool {
        seg < self.cum || self.sacked.contains(seg)
    }

    /// Is `seg` currently marked lost?
    pub fn is_lost(&self, seg: SegId) -> bool {
        self.lost.contains(seg)
    }

    /// Has `seg` ever been transmitted?
    pub fn was_sent(&self, seg: SegId) -> bool {
        self.sent_once.contains(seg)
    }

    /// Has `seg` been transmitted more than once?
    pub fn was_retransmitted(&self, seg: SegId) -> bool {
        self.retransmitted.contains(seg)
    }

    /// First segment not yet covered, if any.
    pub fn first_uncovered(&self) -> Option<SegId> {
        let mut v = self.cum;
        loop {
            if v >= self.total_segs {
                return None;
            }
            if !self.sacked.contains(v) {
                return Some(v);
            }
            v = self.sacked.first_missing_from(v);
        }
    }

    /// Uncovered segments in `[lo, hi)`, ascending (capped at `max`).
    pub fn uncovered_in(&self, lo: SegId, hi: SegId, max: usize) -> Vec<SegId> {
        let mut out = Vec::new();
        let mut v = lo.max(self.cum);
        while v < hi && out.len() < max {
            if self.sacked.contains(v) {
                v = self.sacked.first_missing_from(v);
                continue;
            }
            out.push(v);
            v += 1;
        }
        out
    }

    /// Highest uncovered segment strictly below `hi`, scanning down.
    pub fn highest_uncovered_below(&self, hi: SegId) -> Option<SegId> {
        let mut v = hi.min(self.total_segs);
        while v > self.cum {
            v -= 1;
            if !self.sacked.contains(v) {
                return Some(v);
            }
        }
        None
    }

    /// Record a transmission of `seg`.
    pub fn on_transmit(&mut self, seg: SegId) {
        assert!(
            seg < self.total_segs,
            "transmit of out-of-range segment {seg}"
        );
        if self.sent_once.contains(seg) {
            self.retransmitted.insert(seg);
        }
        self.sent_once.insert(seg);
        if self.naive_remarking {
            self.sacked_at_tx[seg as usize] = self.total_sacked_ever;
        }
        self.high_sent = self.high_sent.max(seg + 1);
        let o = &mut self.outstanding[seg as usize];
        *o = o.saturating_add(1);
        self.pipe_bytes += self.seg_bytes(seg) as u64;
        // A retransmission of a lost segment puts it back in flight; clear
        // the lost mark so pipe accounting and retransmission policies treat
        // it as outstanding again.
        // (It will be re-marked only by an RTO, not by the DupThresh rule.)
        self.lost.remove(seg);
    }

    fn resolve_flight(&mut self, seg: SegId) {
        let o = std::mem::take(&mut self.outstanding[seg as usize]);
        if o > 0 {
            self.pipe_bytes = self
                .pipe_bytes
                .saturating_sub(self.seg_bytes(seg) as u64 * o as u64);
        }
    }

    /// Process an incoming ACK; returns what changed.
    pub fn on_ack(&mut self, ack: &AckHeader) -> AckOutcome {
        let mut out = AckOutcome::default();

        // Cumulative advance.
        if ack.cum > self.cum {
            for seg in self.cum..ack.cum {
                if !self.sacked.contains(seg) {
                    out.newly_acked_bytes += self.seg_bytes(seg) as u64;
                }
                self.resolve_flight(seg);
            }
            self.cum = ack.cum;
            self.sacked.prune_below(self.cum);
            self.lost.prune_below(self.cum);
            self.retransmitted.prune_below(self.cum);
            out.cum_advanced = true;
        }

        // Selective blocks: touch only the segments this ACK newly covers
        // (blocks can span the whole receive window; iterating every member
        // per ACK would be quadratic for big windows).
        let mut gaps = std::mem::take(&mut self.sack_gap_scratch);
        for &(s, e) in ack.sack.ranges() {
            let s = s.max(self.cum);
            if s >= e {
                continue;
            }
            self.sacked.missing_within_into(s, e, &mut gaps);
            for &(gs, ge) in &gaps {
                for seg in gs..ge {
                    out.newly_acked_bytes += self.seg_bytes(seg) as u64;
                    self.total_sacked_ever += 1;
                    self.resolve_flight(seg);
                    self.lost.remove(seg);
                }
            }
            self.sacked.insert_range(s, e);
        }
        self.sack_gap_scratch = gaps;

        out.is_duplicate = !out.cum_advanced && out.newly_acked_bytes == 0;

        // DupThresh loss detection: an uncovered segment with >= 3 SACKed
        // segments above it is deemed lost. Walk the SACKed ranges once,
        // ascending, visiting only the holes between them — O(holes),
        // independent of window width. The count of SACKed segments above a
        // hole is `total - below`, where `below` accumulates as the walk
        // passes each range, so `newly_lost` comes out already sorted with
        // no scratch allocation.
        let total_sacked = self.sacked.len();
        if total_sacked >= DUP_THRESH {
            let total_bytes = self.total_bytes;
            let naive = self.naive_remarking;
            let ever = self.total_sacked_ever;
            let mut below: u64 = 0;
            let mut hole_lo = self.cum;
            for (rs, re) in self.sacked.iter_ranges() {
                if total_sacked - below < DUP_THRESH {
                    // This hole — and every later one — has too few SACKed
                    // segments above it.
                    break;
                }
                for v in hole_lo.max(self.cum)..rs {
                    let eligible = if self.retransmitted.contains(v) {
                        // A retransmitted segment: careful stacks never
                        // re-mark; the naive stack re-marks once DupThresh
                        // further segments were SACKed after the
                        // retransmission.
                        naive && ever >= self.sacked_at_tx[v as usize] + DUP_THRESH
                    } else {
                        true
                    };
                    if !self.lost.contains(v) && self.outstanding[v as usize] > 0 && eligible {
                        self.lost.insert(v);
                        // resolve_flight, inlined: the SACK range iterator
                        // pins `self.sacked`, so only disjoint fields may be
                        // borrowed here.
                        let o = std::mem::take(&mut self.outstanding[v as usize]);
                        if o > 0 {
                            self.pipe_bytes = self.pipe_bytes.saturating_sub(
                                seg_payload_bytes(total_bytes, v) as u64 * o as u64,
                            );
                        }
                        out.newly_lost.push(v);
                    }
                }
                below += (re - rs) as u64;
                hole_lo = re;
            }
        }

        out
    }

    /// An RTO fired: everything unacknowledged is presumed gone from the
    /// network; pipe resets and uncovered in-flight segments are marked lost.
    pub fn on_rto(&mut self) {
        for seg in self.cum..self.high_sent {
            if !self.is_covered(seg) && self.sent_once.contains(seg) {
                self.lost.insert(seg);
            }
            self.outstanding[seg as usize] = 0;
        }
        self.pipe_bytes = 0;
    }

    /// Lost segments, ascending, capped at `max`.
    pub fn lost_segments(&self, max: usize) -> Vec<SegId> {
        let mut out = Vec::new();
        for (s, e) in self.lost.iter_ranges() {
            for v in s..e {
                if out.len() >= max {
                    return out;
                }
                out.push(v);
            }
        }
        out
    }

    /// Lowest segment currently marked lost, without allocating — the
    /// send loops poll this once per transmitted segment.
    pub fn first_lost(&self) -> Option<SegId> {
        self.lost.iter_ranges().next().map(|(s, _)| s)
    }

    /// Payload bytes cumulatively+selectively acknowledged so far.
    pub fn acked_bytes(&self) -> u64 {
        let mut b = 0u64;
        for seg in 0..self.cum {
            b += self.seg_bytes(seg) as u64;
        }
        for (s, e) in self.sacked.iter_ranges() {
            for seg in s.max(self.cum)..e {
                b += self.seg_bytes(seg) as u64;
            }
        }
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{SackBlocks, MSS};
    use netsim::SimTime;

    fn ack(cum: SegId, sack: &[(SegId, SegId)]) -> AckHeader {
        AckHeader {
            cum,
            sack: SackBlocks::from_ranges(sack),
            for_seg: cum,
            echo_tx_time: SimTime::ZERO,
            window: 141_000,
        }
    }

    fn board(n: u32) -> Scoreboard {
        Scoreboard::new(n as u64 * MSS as u64, n, false)
    }

    #[test]
    fn transmit_and_ack_pipe_accounting() {
        let mut b = board(10);
        for s in 0..5 {
            b.on_transmit(s);
        }
        assert_eq!(b.pipe_bytes(), 5 * MSS as u64);
        let out = b.on_ack(&ack(2, &[]));
        assert!(out.cum_advanced);
        assert_eq!(out.newly_acked_bytes, 2 * MSS as u64);
        assert_eq!(b.pipe_bytes(), 3 * MSS as u64);
        assert_eq!(b.cum_ack(), 2);
        assert!(!b.complete());
    }

    #[test]
    fn sack_reduces_pipe_and_marks_lost_after_dupthresh() {
        let mut b = board(10);
        for s in 0..6 {
            b.on_transmit(s);
        }
        // Segment 1 lost; SACKs for 2, 3, 4 arrive one at a time.
        b.on_ack(&ack(1, &[(2, 3)]));
        b.on_ack(&ack(1, &[(2, 4)]));
        assert_eq!(b.first_lost(), None, "below DupThresh");
        let out = b.on_ack(&ack(1, &[(2, 5)]));
        assert_eq!(out.newly_lost, vec![1]);
        assert!(b.is_lost(1));
        // Lost segment no longer counts toward pipe.
        assert_eq!(b.pipe_bytes(), (MSS as u64)); // only seg 5 in flight
    }

    #[test]
    fn retransmit_clears_lost_and_restores_pipe() {
        let mut b = board(10);
        for s in 0..6 {
            b.on_transmit(s);
        }
        b.on_ack(&ack(1, &[(2, 5)]));
        assert!(b.is_lost(1));
        b.on_transmit(1);
        assert!(!b.is_lost(1));
        assert!(b.pipe_bytes() >= 2 * MSS as u64);
        // Finally the retransmission is ACKed.
        let out = b.on_ack(&ack(5, &[]));
        assert!(out.cum_advanced);
        assert_eq!(b.cum_ack(), 5);
    }

    #[test]
    fn duplicate_ack_detected() {
        let mut b = board(4);
        b.on_transmit(0);
        b.on_ack(&ack(1, &[]));
        let out = b.on_ack(&ack(1, &[]));
        assert!(out.is_duplicate);
    }

    #[test]
    fn completion() {
        let mut b = board(3);
        for s in 0..3 {
            b.on_transmit(s);
        }
        b.on_ack(&ack(3, &[]));
        assert!(b.complete());
        assert_eq!(b.pipe_bytes(), 0);
    }

    #[test]
    fn rto_marks_uncovered_lost_and_zeroes_pipe() {
        let mut b = board(8);
        for s in 0..6 {
            b.on_transmit(s);
        }
        b.on_ack(&ack(2, &[(4, 5)]));
        b.on_rto();
        assert_eq!(b.pipe_bytes(), 0);
        assert!(b.is_lost(2));
        assert!(b.is_lost(3));
        assert!(!b.is_lost(4), "SACKed segment must not be marked lost");
        assert!(b.is_lost(5));
        assert!(!b.is_lost(6), "never-sent segment is not lost");
        assert_eq!(b.lost_segments(10), vec![2, 3, 5]);
    }

    #[test]
    fn uncovered_queries() {
        let mut b = board(10);
        for s in 0..8 {
            b.on_transmit(s);
        }
        b.on_ack(&ack(2, &[(4, 6)]));
        assert_eq!(b.first_uncovered(), Some(2));
        assert_eq!(b.uncovered_in(0, 8, 10), vec![2, 3, 6, 7]);
        assert_eq!(b.highest_uncovered_below(8), Some(7));
        assert_eq!(b.highest_uncovered_below(7), Some(6));
        assert_eq!(b.highest_uncovered_below(4), Some(3));
        assert_eq!(b.next_unsent(), Some(8));
    }

    #[test]
    fn acked_bytes_counts_cum_and_sack() {
        let mut b = board(10);
        for s in 0..8 {
            b.on_transmit(s);
        }
        b.on_ack(&ack(2, &[(4, 6)]));
        assert_eq!(b.acked_bytes(), 4 * MSS as u64);
    }

    #[test]
    fn last_segment_partial_bytes() {
        let total = MSS as u64 + 500;
        let mut b = Scoreboard::new(total, 2, false);
        b.on_transmit(0);
        b.on_transmit(1);
        assert_eq!(b.pipe_bytes(), total);
        b.on_ack(&ack(2, &[]));
        assert!(b.complete());
        assert_eq!(b.pipe_bytes(), 0);
    }

    #[test]
    fn old_sack_below_cum_is_ignored() {
        let mut b = board(10);
        for s in 0..6 {
            b.on_transmit(s);
        }
        b.on_ack(&ack(5, &[]));
        let out = b.on_ack(&ack(5, &[(1, 3)]));
        assert!(out.is_duplicate);
        assert_eq!(b.pipe_bytes(), MSS as u64); // seg 5 still out
    }
}
