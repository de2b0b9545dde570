//! Reactive TCP (\[18\], §2.2): standard TCP plus a *probe timeout* (PTO)
//! that retransmits the last unacknowledged segment well before the RTO
//! would fire, converting tail loss into SACK-recoverable loss.
//!
//! PTO = max(2 × SRTT, 10 ms), re-armed whenever new data is sent or new
//! progress is made, matching the TLP design in \[18\].

use netsim::SimDuration;
use transport::reno::{RenoConfig, RenoEngine};
use transport::scoreboard::AckOutcome;
use transport::sender::Ops;
use transport::strategy::Strategy;
use transport::wire::{AckHeader, SegId, SendClass};

/// Probes sent without progress before the PTO stops re-arming and the RTO
/// takes over.
const MAX_PROBES: u32 = 6;

/// Reactive TCP: NewReno + tail loss probe.
#[derive(Debug)]
pub struct ReactiveTcp {
    reno: RenoEngine,
    probes_sent: u32,
}

impl ReactiveTcp {
    /// Reactive TCP with the default 2-segment initial window.
    pub fn new() -> Self {
        ReactiveTcp {
            reno: RenoEngine::new(RenoConfig {
                icw_segments: 2,
                ..Default::default()
            }),
            probes_sent: 0,
        }
    }

    fn pto_delay(ops: &Ops<'_, '_>) -> SimDuration {
        let srtt = ops.rtt().srtt().unwrap_or(SimDuration::from_millis(100));
        srtt.saturating_mul(2).max(SimDuration::from_millis(10))
    }

    fn rearm(&self, ops: &mut Ops<'_, '_>) {
        if ops.board().pipe_bytes() > 0 && self.probes_sent < MAX_PROBES {
            ops.arm_pto(Self::pto_delay(ops));
        } else {
            ops.cancel_pto();
        }
    }
}

impl Default for ReactiveTcp {
    fn default() -> Self {
        Self::new()
    }
}

impl Strategy for ReactiveTcp {
    fn name(&self) -> &'static str {
        "Reactive"
    }

    fn on_established(&mut self, ops: &mut Ops<'_, '_>) {
        self.reno.on_established(ops);
        self.rearm(ops);
    }

    fn on_ack(&mut self, ops: &mut Ops<'_, '_>, _ack: &AckHeader, outcome: &AckOutcome) {
        self.reno.on_ack(ops, outcome);
        if outcome.cum_advanced {
            self.probes_sent = 0;
        }
        self.rearm(ops);
    }

    fn on_loss_detected(&mut self, ops: &mut Ops<'_, '_>, newly_lost: &[SegId]) {
        self.reno.on_loss(ops, newly_lost);
    }

    fn on_rto(&mut self, ops: &mut Ops<'_, '_>) {
        self.probes_sent = 0;
        self.reno.on_rto(ops);
        self.rearm(ops);
    }

    fn on_pto(&mut self, ops: &mut Ops<'_, '_>) {
        // Retransmit the highest unacknowledged segment as a probe; its ACK
        // (or the SACK it provokes) restores the ACK clock without waiting
        // for the full RTO.
        if let Some(seg) = ops.board().highest_uncovered_below(ops.board().high_sent()) {
            ops.send_segment(seg, SendClass::ProbeRetx);
            self.probes_sent += 1;
        }
        self.rearm(ops);
    }

    netsim::snap_fields!(fn save_state, load_state { reno, probes_sent });
}
