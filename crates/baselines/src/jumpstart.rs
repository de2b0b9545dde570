//! JumpStart (\[25\], §2.2): transmit the entire flow paced evenly across the
//! first RTT, then fall back to normal TCP with *bursty, reactive-only*
//! retransmission.
//!
//! The fallback keeps the huge effective window the paced batch implies, so
//! when SACK loss detection fires, every lost segment is retransmitted in
//! one line-rate burst — the behaviour the paper identifies as the cause of
//! JumpStart's early performance collapse (Figs. 10(b), 12) and poor
//! TCP-friendliness (Fig. 14). Tail loss still requires a full RTO, since
//! JumpStart has no proactive recovery.

use netsim::SimDuration;
use transport::reno::{RenoConfig, RenoEngine};
use transport::scoreboard::AckOutcome;
use transport::sender::Ops;
use transport::strategy::{PaceAction, Strategy};
use transport::wire::{segment_count, AckHeader, SegId, SendClass};

/// JumpStart: whole-flow pacing then bursty reactive TCP.
#[derive(Debug)]
pub struct JumpStart {
    reno: RenoEngine,
    pacing: bool,
    /// Segments to pace in the first batch (min(flow, window)).
    batch_segs: u32,
    /// Next batch segment to pace.
    next: SegId,
    /// Payload bytes paced in the batch (sets the fallback window).
    batch_bytes: u64,
}

impl JumpStart {
    /// A fresh JumpStart sender.
    pub fn new() -> Self {
        JumpStart {
            reno: RenoEngine::new(RenoConfig {
                icw_segments: 2,
                burst_retransmit: true,
                ..Default::default()
            }),
            pacing: false,
            batch_segs: 0,
            next: 0,
            batch_bytes: 0,
        }
    }

    fn finish_pacing(&mut self, ops: &mut Ops<'_, '_>) {
        self.pacing = false;
        // Fall back to TCP with the window the paced batch implies; the
        // first detected loss halves it, but until then JumpStart may burst.
        self.reno
            .set_cwnd(self.batch_bytes.max(2 * ops.mss() as u64));
        // Any loss already detected during pacing gets the bursty treatment
        // now (reactive-only: nothing was retransmitted while pacing).
        let pending: Vec<SegId> = ops.board().lost_segments(usize::MAX);
        if !pending.is_empty() {
            self.reno.on_loss(ops, &pending);
        }
    }
}

impl Default for JumpStart {
    fn default() -> Self {
        Self::new()
    }
}

impl Strategy for JumpStart {
    fn name(&self) -> &'static str {
        "JumpStart"
    }

    fn on_established(&mut self, ops: &mut Ops<'_, '_>) {
        let window = ops.window_bytes() as u64;
        let batch_bytes = ops.flow_bytes().min(window);
        self.batch_segs = segment_count(batch_bytes).min(ops.total_segs());
        self.batch_bytes = batch_bytes;
        let rtt = ops.rtt().latest().unwrap_or(SimDuration::from_millis(100));
        // Pace the batch evenly across one RTT: first segment now, the rest
        // on ticks of rtt / n.
        let interval = rtt / self.batch_segs.max(1) as u64;
        self.pacing = true;
        ops.send_segment(0, SendClass::New);
        self.next = 1;
        if self.next >= self.batch_segs {
            self.finish_pacing(ops);
        } else {
            ops.start_pacing(interval);
        }
    }

    fn on_pace_tick(&mut self, ops: &mut Ops<'_, '_>) -> PaceAction {
        if !self.pacing || self.next >= self.batch_segs {
            return PaceAction::Stop;
        }
        ops.send_segment(self.next, SendClass::New);
        self.next += 1;
        if self.next >= self.batch_segs {
            self.finish_pacing(ops);
            PaceAction::Stop
        } else {
            PaceAction::Continue
        }
    }

    fn on_ack(&mut self, ops: &mut Ops<'_, '_>, _ack: &AckHeader, outcome: &AckOutcome) {
        if self.pacing {
            // Reactive-only: during the paced RTT, ACKs change nothing.
            return;
        }
        self.reno.on_ack(ops, outcome);
    }

    fn on_loss_detected(&mut self, ops: &mut Ops<'_, '_>, newly_lost: &[SegId]) {
        if self.pacing {
            // Noted on the scoreboard; handled when pacing completes.
            return;
        }
        self.reno.on_loss(ops, newly_lost);
    }

    fn on_rto(&mut self, ops: &mut Ops<'_, '_>) {
        if self.pacing {
            self.pacing = false;
            ops.stop_pacing();
        }
        self.reno.on_rto(ops);
    }

    fn naive_loss_remarking(&self) -> bool {
        // §4.3.3: JumpStart's "propensity to retransmit the same packets
        // multiple times".
        true
    }

    netsim::snap_fields!(fn save_state, load_state { reno, pacing, batch_segs, next, batch_bytes });
}
