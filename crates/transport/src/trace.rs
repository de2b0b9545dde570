//! Transport-level flight recorder: typed flow events in a bounded
//! per-host ring.
//!
//! The netsim engine already exposes wire-level [`netsim::engine::TraceEvent`]s
//! through its optional tracer. This module extends that bus one layer up:
//! [`FlowEvent`] describes what the *transport* did — handshake transitions,
//! every segment transmission with its [`SendClass`], cumulative-ACK
//! progress, congestion-window updates, RTO fires, pacing releases, the
//! Halfback ROPR/ACK meet point, and terminal outcomes. Each host owns an
//! optional bounded [`FlightRecorder`] ring; when it is `None` (the default)
//! every emission site reduces to a null check, so the packet hot path stays
//! allocation-free exactly as without tracing.
//!
//! Determinism contract: events are stamped with [`SimTime`] and [`FlowId`]
//! at emission, inside the deterministic event loop, and buffered in
//! emission order. A run's recorded stream is therefore a pure function of
//! `(scenario, seed)` — byte-identical across repeats and across any
//! `--jobs N`, which `scenarios/tests/harness_determinism.rs` asserts.

use crate::wire::{SegId, SendClass};
use netsim::{FlowId, SimTime};
use std::collections::VecDeque;

/// A transport-level trace event (see module docs for the taxonomy).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FlowEvent {
    /// A SYN left the sender (`attempt` counts retransmissions from 1).
    SynSent {
        /// 1 for the first SYN, incrementing per handshake retry.
        attempt: u32,
    },
    /// The handshake completed; the flow is established.
    Established {
        /// Receiver-advertised flow-control window in bytes.
        window: u32,
    },
    /// A data segment left the sender.
    SegmentSent {
        /// Segment index.
        seg: SegId,
        /// Why it was sent (new data, reactive retx, proactive copy...).
        class: SendClass,
        /// On-wire size including headers.
        wire_bytes: u32,
    },
    /// An ACK arrived at the sender (after the scoreboard was updated).
    AckReceived {
        /// Cumulative ACK point after this ACK.
        cum: SegId,
        /// Bytes newly acknowledged (cumulatively or via SACK) by this ACK.
        newly_acked_bytes: u64,
    },
    /// The congestion controller changed its window state.
    CwndUpdate {
        /// Congestion window in bytes.
        cwnd: u64,
        /// Slow-start threshold in bytes.
        ssthresh: u64,
    },
    /// The retransmission timer fired on an established connection.
    RtoFired {
        /// Consecutive backoffs without cumulative progress (pre-backoff).
        backoff_level: u32,
    },
    /// The pacing timer was started (or restarted).
    PacingStarted {
        /// Tick interval in nanoseconds.
        interval_ns: u64,
    },
    /// The pacing timer was cancelled.
    PacingStopped,
    /// Halfback's descending ROPR cursor met the advancing cumulative ACK:
    /// the proactive-retransmission phase is exhausted. The paper's "≈ 50%"
    /// claim is `cursor / batch_segs ≈ 0.5` on a lossless path.
    RoprMeet {
        /// Where the descending cursor stopped.
        cursor: SegId,
        /// The cumulative ACK at the meet instant.
        cum_ack: SegId,
        /// Segments in the paced batch.
        batch_segs: u32,
    },
    /// A data segment arrived at the receiver (Fig. 15 bins the growth of
    /// `delivered_bytes`).
    Delivered {
        /// Segment index carried by the arriving packet.
        seg: SegId,
        /// Receiver's cumulative point after this arrival.
        cum: SegId,
        /// In-order payload bytes delivered so far.
        delivered_bytes: u64,
        /// How the sender classed this copy (first copy, proactive,
        /// retransmission).
        class: SendClass,
    },
    /// Every payload byte was cumulatively acknowledged.
    Completed {
        /// Flow completion time (SYN to final ACK) in nanoseconds.
        fct_ns: u64,
    },
    /// The sender gave up.
    Aborted {
        /// Abort reason (display name of [`crate::sender::AbortReason`]).
        reason: &'static str,
    },
}

/// One recorded event: when, which flow, what.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowEventRecord {
    /// Emission instant.
    pub at: SimTime,
    /// The flow the event belongs to.
    pub flow: FlowId,
    /// The event.
    pub event: FlowEvent,
}

/// A bounded ring of [`FlowEventRecord`]s, per host. When full, the oldest
/// event is evicted (and counted), so a runaway flow cannot grow memory —
/// the recorder is a flight recorder, not an unbounded log.
#[derive(Debug)]
pub struct FlightRecorder {
    cap: usize,
    buf: VecDeque<FlowEventRecord>,
    evicted: u64,
}

impl FlightRecorder {
    /// Default ring capacity: comfortably holds every event of a short-flow
    /// trace (a 100 KB flow emits a few hundred events end to end).
    pub const DEFAULT_CAP: usize = 65_536;

    /// A recorder holding at most `cap` events.
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "flight recorder needs a positive capacity");
        FlightRecorder {
            cap,
            buf: VecDeque::with_capacity(cap.min(1024)),
            evicted: 0,
        }
    }

    /// Append an event, evicting the oldest when full.
    pub fn record(&mut self, at: SimTime, flow: FlowId, event: FlowEvent) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.evicted += 1;
        }
        self.buf.push_back(FlowEventRecord { at, flow, event });
    }

    /// Recorded events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &FlowEventRecord> {
        self.buf.iter()
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events evicted because the ring was full.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(i: u64) -> (SimTime, FlowId, FlowEvent) {
        (
            SimTime::ZERO + netsim::SimDuration::from_nanos(i),
            FlowId(1),
            FlowEvent::AckReceived {
                cum: i as u32,
                newly_acked_bytes: 1460,
            },
        )
    }

    #[test]
    fn ring_evicts_oldest_and_counts() {
        let mut r = FlightRecorder::new(3);
        for i in 0..5 {
            let (at, flow, e) = ev(i);
            r.record(at, flow, e);
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.evicted(), 2);
        let cums: Vec<u32> = r
            .events()
            .map(|rec| match rec.event {
                FlowEvent::AckReceived { cum, .. } => cum,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(cums, vec![2, 3, 4], "oldest events evicted first");
    }
}
