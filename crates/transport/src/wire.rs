//! The on-wire header carried in every simulated packet.
//!
//! Mirrors the paper's setup (§4.1): schemes are implemented over a
//! UDP-based transport (UDT) with selective ACKs; segments are 1500 bytes
//! on the wire including headers. The receiver echoes the data packet's
//! transmit timestamp in each ACK, which gives senders exact RTT samples
//! (equivalent to TCP timestamps) and gives PCP its dispersion measurements.

use netsim::snap::{Snap, SnapError, SnapReader, SnapWriter};
use netsim::{snap_enum, snap_struct, SimTime};

/// Maximum payload bytes per segment (1500-byte wire size minus headers).
pub const MSS: u32 = 1460;
/// Header overhead added to every data segment.
pub const HEADER_BYTES: u32 = 40;
/// Full-size data segment on the wire (paper §4.1: 1500 bytes w/ header).
pub const SEG_WIRE_BYTES: u32 = MSS + HEADER_BYTES;
/// Pure-ACK / SYN / SYN-ACK wire size.
pub const CTRL_WIRE_BYTES: u32 = 40;
/// Default advertised flow-control window (paper §4.1: 141 KB, as in
/// Windows XP; also Halfback's default Pacing Threshold).
pub const DEFAULT_FCW_BYTES: u32 = 141_000;

/// Index of a segment within a flow (0-based).
pub type SegId = u32;

/// Why a data segment was transmitted — drives the retransmission
/// accounting the paper reports (Figs. 5 and 10(b) count *normal*
/// retransmissions; ROPR/Proactive copies are tracked separately).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendClass {
    /// First transmission of this segment.
    New,
    /// Reactive retransmission after SACK-based loss detection (a "normal"
    /// retransmission in the paper's terms).
    FastRetx,
    /// Reactive retransmission after an RTO (also "normal").
    RtoRetx,
    /// Tail-loss-probe retransmission (Reactive TCP's PTO; counted normal).
    ProbeRetx,
    /// Proactive copy: Halfback's ROPR or Proactive TCP's duplicate.
    Proactive,
}

impl SendClass {
    /// True for the classes the paper counts as "normal retransmissions".
    pub fn is_normal_retx(self) -> bool {
        matches!(
            self,
            SendClass::FastRetx | SendClass::RtoRetx | SendClass::ProbeRetx
        )
    }

    /// True for proactive (loss-anticipating) copies.
    pub fn is_proactive(self) -> bool {
        matches!(self, SendClass::Proactive)
    }

    /// True for any transmission that is not the first copy.
    pub fn is_retransmission(self) -> bool {
        !matches!(self, SendClass::New)
    }
}

/// Up to four SACK ranges, mirroring real TCP's option-space limit.
/// Each block is a half-open segment range `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SackBlocks {
    blocks: [(SegId, SegId); 4],
    len: u8,
}

impl SackBlocks {
    /// No SACK information.
    pub const EMPTY: SackBlocks = SackBlocks {
        blocks: [(0, 0); 4],
        len: 0,
    };

    /// Build from up to four ranges (extra ranges are dropped).
    pub fn from_ranges(ranges: &[(SegId, SegId)]) -> Self {
        let mut s = SackBlocks::EMPTY;
        for &r in ranges.iter().take(4) {
            debug_assert!(r.0 < r.1, "empty SACK range {r:?}");
            s.blocks[s.len as usize] = r;
            s.len += 1;
        }
        s
    }

    /// The ranges present.
    pub fn ranges(&self) -> &[(SegId, SegId)] {
        &self.blocks[..self.len as usize]
    }

    /// True if no ranges are present.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Header of a data segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataHeader {
    /// Segment index within the flow.
    pub seg: SegId,
    /// Transmission class (first copy, reactive retx, proactive copy…).
    pub class: SendClass,
}

/// Header of an acknowledgement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AckHeader {
    /// Cumulative ACK: all segments `< cum` have been received.
    pub cum: SegId,
    /// Selective acknowledgement ranges above `cum`.
    pub sack: SackBlocks,
    /// The segment whose arrival triggered this ACK.
    pub for_seg: SegId,
    /// Echo of the triggering data packet's transmit timestamp (exact RTT
    /// samples, Karn-safe — equivalent to TCP timestamps).
    pub echo_tx_time: SimTime,
    /// Receiver's advertised flow-control window in bytes.
    pub window: u32,
}

/// PCP probe packet: one element of a packet train.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeHeader {
    /// Train sequence number (per connection).
    pub train: u32,
    /// Position within the train.
    pub idx: u32,
    /// Train length.
    pub len: u32,
}

/// Receiver's reply to a probe, echoing timing for dispersion measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeAckHeader {
    /// Train sequence number.
    pub train: u32,
    /// Position within the train.
    pub idx: u32,
    /// Train length.
    pub len: u32,
    /// When the probe left the sender (echoed).
    pub sent_at: SimTime,
    /// When the probe reached the receiver.
    pub recv_at: SimTime,
}

/// Every message the simulated transport can carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Header {
    /// Connection request. Carries the flow's total size in bytes so the
    /// receiver can size its bookkeeping (the simulator's stand-in for an
    /// application-level content-length).
    Syn {
        /// Total flow size in bytes.
        flow_bytes: u64,
    },
    /// Connection accept; advertises the receiver window.
    SynAck {
        /// Advertised flow-control window in bytes.
        window: u32,
    },
    /// A data segment.
    Data(DataHeader),
    /// An acknowledgement.
    Ack(AckHeader),
    /// A PCP bandwidth probe.
    Probe(ProbeHeader),
    /// Reply to a probe.
    ProbeAck(ProbeAckHeader),
}

snap_enum!(SendClass {
    New = 0,
    FastRetx = 1,
    RtoRetx = 2,
    ProbeRetx = 3,
    Proactive = 4,
});
snap_struct!(DataHeader { seg, class });
snap_struct!(AckHeader {
    cum,
    sack,
    for_seg,
    echo_tx_time,
    window
});
snap_struct!(ProbeHeader { train, idx, len });
snap_struct!(ProbeAckHeader {
    train,
    idx,
    len,
    sent_at,
    recv_at
});

/// Travels as the ranges present; more than four cannot be a `SackBlocks`.
impl Snap for SackBlocks {
    fn save(&self, w: &mut SnapWriter) {
        w.put(&self.ranges().to_vec());
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let ranges: Vec<(SegId, SegId)> = r.get()?;
        let mut s = SackBlocks::EMPTY;
        if ranges.len() > s.blocks.len() {
            return Err(SnapError::Tag {
                ty: "SackBlocks.len",
                tag: ranges.len().min(u8::MAX as usize) as u8,
            });
        }
        s.blocks[..ranges.len()].copy_from_slice(&ranges);
        s.len = ranges.len() as u8;
        Ok(s)
    }
}

impl Snap for Header {
    fn save(&self, w: &mut SnapWriter) {
        match self {
            Header::Syn { flow_bytes } => {
                w.u8(0);
                w.put(flow_bytes);
            }
            Header::SynAck { window } => {
                w.u8(1);
                w.put(window);
            }
            Header::Data(h) => {
                w.u8(2);
                w.put(h);
            }
            Header::Ack(h) => {
                w.u8(3);
                w.put(h);
            }
            Header::Probe(h) => {
                w.u8(4);
                w.put(h);
            }
            Header::ProbeAck(h) => {
                w.u8(5);
                w.put(h);
            }
        }
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(match r.u8()? {
            0 => Header::Syn {
                flow_bytes: r.get()?,
            },
            1 => Header::SynAck { window: r.get()? },
            2 => Header::Data(r.get()?),
            3 => Header::Ack(r.get()?),
            4 => Header::Probe(r.get()?),
            5 => Header::ProbeAck(r.get()?),
            tag => return Err(SnapError::Tag { ty: "Header", tag }),
        })
    }
}

/// Number of segments needed for a flow of `bytes` payload bytes.
pub fn segment_count(bytes: u64) -> u32 {
    if bytes == 0 {
        return 0;
    }
    bytes.div_ceil(MSS as u64).min(u32::MAX as u64) as u32
}

/// Payload bytes carried by segment `seg` of a flow of `total_bytes`.
pub fn seg_payload_bytes(total_bytes: u64, seg: SegId) -> u32 {
    let n = segment_count(total_bytes);
    debug_assert!(
        seg < n,
        "segment {seg} out of range for {total_bytes} bytes"
    );
    if seg + 1 < n {
        MSS
    } else {
        let rem = (total_bytes - (n as u64 - 1) * MSS as u64) as u32;
        if rem == 0 {
            MSS
        } else {
            rem
        }
    }
}

/// On-wire size of segment `seg` of a flow of `total_bytes`.
pub fn seg_wire_bytes(total_bytes: u64, seg: SegId) -> u32 {
    seg_payload_bytes(total_bytes, seg) + HEADER_BYTES
}

/// Total wire bytes (data direction, first copies only) of a flow,
/// excluding handshake — used by utilization targeting.
pub fn flow_wire_bytes(total_bytes: u64) -> u64 {
    let n = segment_count(total_bytes) as u64;
    total_bytes + n * HEADER_BYTES as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_count_rounds_up() {
        assert_eq!(segment_count(0), 0);
        assert_eq!(segment_count(1), 1);
        assert_eq!(segment_count(MSS as u64), 1);
        assert_eq!(segment_count(MSS as u64 + 1), 2);
        assert_eq!(segment_count(100_000), 69); // 100 KB / 1460 = 68.49...
    }

    #[test]
    fn last_segment_carries_remainder() {
        let total = 100_000u64;
        let n = segment_count(total);
        let sum: u64 = (0..n).map(|s| seg_payload_bytes(total, s) as u64).sum();
        assert_eq!(sum, total);
        assert_eq!(seg_payload_bytes(total, 0), MSS);
        assert_eq!(seg_payload_bytes(total, n - 1), (total % MSS as u64) as u32);
    }

    #[test]
    fn exact_multiple_has_full_last_segment() {
        let total = (MSS as u64) * 10;
        let n = segment_count(total);
        assert_eq!(n, 10);
        assert_eq!(seg_payload_bytes(total, 9), MSS);
    }

    #[test]
    fn wire_bytes_include_headers() {
        assert_eq!(seg_wire_bytes(MSS as u64, 0), SEG_WIRE_BYTES);
        assert_eq!(flow_wire_bytes(100_000), 100_000 + 69 * 40);
    }

    #[test]
    fn sack_blocks_cap_at_four() {
        let s = SackBlocks::from_ranges(&[(1, 2), (3, 4), (5, 6), (7, 8), (9, 10)]);
        assert_eq!(s.ranges().len(), 4);
        assert_eq!(s.ranges()[3], (7, 8));
        assert!(SackBlocks::EMPTY.is_empty());
    }

    #[test]
    fn header_snapshot_roundtrip() {
        let headers = [
            Header::Syn {
                flow_bytes: 123_456,
            },
            Header::SynAck { window: 141_000 },
            Header::Data(DataHeader {
                seg: 42,
                class: SendClass::Proactive,
            }),
            Header::Ack(AckHeader {
                cum: 7,
                sack: SackBlocks::from_ranges(&[(9, 12), (20, 21)]),
                for_seg: 11,
                echo_tx_time: SimTime::from_nanos(987_654_321),
                window: 64_000,
            }),
            Header::Probe(ProbeHeader {
                train: 2,
                idx: 3,
                len: 8,
            }),
            Header::ProbeAck(ProbeAckHeader {
                train: 2,
                idx: 3,
                len: 8,
                sent_at: SimTime::from_nanos(10),
                recv_at: SimTime::from_nanos(20),
            }),
        ];
        let mut w = SnapWriter::new();
        w.put(&headers);
        let bytes = w.into_bytes();
        assert_eq!(SnapReader::new(&bytes).get(), Ok(headers));
        for h in &headers {
            netsim::snap::assert_roundtrip(h);
        }

        // Five SACK ranges cannot be a `SackBlocks`; an unknown tag is no
        // `Header`.
        let mut w = SnapWriter::new();
        w.put(&vec![(1u32, 2u32); 5]);
        assert!(matches!(
            SnapReader::new(&w.into_bytes()).get::<SackBlocks>(),
            Err(SnapError::Tag { tag: 5, .. })
        ));
        assert!(matches!(
            SnapReader::new(&[6]).get::<Header>(),
            Err(SnapError::Tag {
                ty: "Header",
                tag: 6
            })
        ));
    }

    #[test]
    fn send_class_accounting() {
        assert!(!SendClass::New.is_retransmission());
        assert!(SendClass::FastRetx.is_normal_retx());
        assert!(SendClass::RtoRetx.is_normal_retx());
        assert!(SendClass::ProbeRetx.is_normal_retx());
        assert!(SendClass::Proactive.is_proactive());
        assert!(!SendClass::Proactive.is_normal_retx());
        assert!(SendClass::Proactive.is_retransmission());
    }
}
