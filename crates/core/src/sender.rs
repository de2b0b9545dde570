//! The Halfback sender (§3).
//!
//! Three phases:
//!
//! 1. **Pacing** (§3.1) — after the handshake, pace
//!    `min(flow size, flow-control window, Pacing Threshold)` evenly over
//!    one RTT. ACKs arriving before pacing finishes do not trigger
//!    proactive retransmission.
//! 2. **ROPR** (§3.2) — from the first ACK after pacing completes, each
//!    received ACK clocks out one proactive retransmission of the highest
//!    not-yet-covered segment, moving *backwards* through the flow. ROPR
//!    ends when the descending cursor meets the advancing cumulative ACK —
//!    in the loss-free case, in the middle of the flow (hence "Halfback").
//!    Normal TCP loss recovery (SACK fast retransmit + RTO) runs in
//!    parallel, but reactive retransmissions stay ACK-clocked: at most one
//!    packet leaves per ACK received, so retransmission never bursts.
//! 3. **Fallback** (§3.3) — flows longer than the Pacing Threshold continue
//!    under standard congestion avoidance with the window seeded at
//!    `s · RTT`, where `s` is the ACK-derived delivery rate of the paced
//!    prefix.

use crate::config::{HalfbackConfig, RoprVariant};
use netsim::{SimDuration, SimTime};
use transport::reno::{RenoConfig, RenoEngine};
use transport::scoreboard::AckOutcome;
use transport::sender::Ops;
use transport::strategy::{PaceAction, Strategy};
use transport::trace::FlowEvent;
use transport::wire::{segment_count, AckHeader, SegId, SendClass, MSS};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HbPhase {
    /// Paced first transmission of the batch.
    Pacing,
    /// ACK-clocked proactive retransmission (and ACK-clocked reactive
    /// recovery after the ROPR cursor is exhausted).
    Ropr,
    /// Standard congestion avoidance for the post-threshold remainder.
    Fallback,
}

netsim::snap_enum!(HbPhase { Pacing = 0, Ropr = 1, Fallback = 2 });

/// The Halfback sender strategy.
#[derive(Debug)]
pub struct Halfback {
    cfg: HalfbackConfig,
    phase: HbPhase,
    /// Segments in the aggressive batch (`min(flow, window, threshold)`).
    batch_segs: u32,
    /// Next batch segment the pacer will transmit.
    next_paced: SegId,
    /// ROPR cursor: proactive retransmission considers only segments below
    /// this; strictly decreasing so each segment is sent proactively at
    /// most once.
    ropr_cursor: SegId,
    /// ROPR has exhausted its cursor (met the cumulative ACK).
    ropr_done: bool,
    /// Accumulator for the `(sends, acks)` proactive ratio.
    ratio_acc: u32,
    /// Suppress the proactive send for the ACK that just triggered a
    /// reactive retransmission (keeps Halfback at <= 1 packet per ACK).
    skip_next_ropr: bool,
    /// When the pacing phase started (for the fallback rate estimate).
    pacing_started: SimTime,
    /// The "normal TCP runs in parallel" engine (§3.2): window-governed
    /// reactive retransmission during ROPR, created when pacing ends; after
    /// the paced prefix is delivered it becomes the §3.3 fallback engine
    /// (seeded with `s · RTT` and allowed to send post-threshold data).
    reactive: Option<RenoEngine>,
}

impl Halfback {
    /// A Halfback sender with the given configuration.
    pub fn with_config(cfg: HalfbackConfig) -> Self {
        Halfback {
            cfg,
            phase: HbPhase::Pacing,
            batch_segs: 0,
            next_paced: 0,
            ropr_cursor: 0,
            ropr_done: false,
            ratio_acc: 0,
            skip_next_ropr: false,
            pacing_started: SimTime::ZERO,
            reactive: None,
        }
    }

    /// The paper's Halfback.
    pub fn new() -> Self {
        Self::with_config(HalfbackConfig::paper())
    }

    fn enter_ropr(&mut self, ops: &mut Ops<'_, '_>) {
        self.phase = HbPhase::Ropr;
        self.ropr_cursor = self.batch_segs;
        self.ropr_done = matches!(self.cfg.variant, RoprVariant::Off);
        // The parallel "normal TCP" machinery: a window-governed reactive
        // engine. Conservative seed — half the paced batch — so reactive
        // retransmission stays ACK-clocked rather than bursting (the
        // limited-aggressiveness property the paper contrasts with
        // JumpStart's line-rate retransmission bursts).
        let batch_bytes: u64 = (0..self.batch_segs)
            .map(|s| ops.board().seg_bytes(s) as u64)
            .sum();
        let mut reno = RenoEngine::new(RenoConfig {
            icw_segments: 2,
            ..Default::default()
        });
        reno.set_cwnd((batch_bytes / 2).max(2 * MSS as u64));
        reno.set_ssthresh(reno.cwnd());
        reno.set_new_data_limit(Some(self.batch_segs));
        self.reactive = Some(reno);
    }

    /// One ACK's worth of ROPR: send up to `ratio` proactive copies of the
    /// highest uncovered segments below the cursor.
    fn ropr_step(&mut self, ops: &mut Ops<'_, '_>) {
        if self.ropr_done {
            return;
        }
        match self.cfg.variant {
            RoprVariant::Off => {}
            RoprVariant::Burst => {
                // Ablation: entire proactive batch at line rate, once.
                while let Some(seg) = ops.board().highest_uncovered_below(self.ropr_cursor) {
                    if seg < ops.board().cum_ack() {
                        break;
                    }
                    ops.send_segment(seg, SendClass::Proactive);
                    self.ropr_cursor = seg;
                    if seg == 0 {
                        break;
                    }
                }
                self.ropr_done = true;
            }
            RoprVariant::Reverse | RoprVariant::Forward => {
                let (sends, acks) = self.cfg.ropr_ratio;
                self.ratio_acc += sends;
                while self.ratio_acc >= acks {
                    self.ratio_acc -= acks;
                    if !self.ropr_send_one(ops) {
                        self.ropr_done = true;
                        // The descending cursor met the advancing cumulative
                        // ACK: record where (the paper's "≈ 50%" claim is
                        // cursor / batch ≈ 0.5 on a loss-free path). Only
                        // this natural meet counts — the RTO path sets
                        // `ropr_done` without one.
                        ops.record(FlowEvent::RoprMeet {
                            cursor: self.ropr_cursor,
                            cum_ack: ops.board().cum_ack(),
                            batch_segs: self.batch_segs,
                        });
                        break;
                    }
                }
            }
        }
    }

    /// Send one proactive retransmission; false when none remain.
    fn ropr_send_one(&mut self, ops: &mut Ops<'_, '_>) -> bool {
        match self.cfg.variant {
            RoprVariant::Reverse => {
                // Descend to the next segment that is neither covered nor
                // already retransmitted by the parallel reactive machinery
                // (a second copy of those would be pure waste).
                loop {
                    match ops.board().highest_uncovered_below(self.ropr_cursor) {
                        Some(seg) if seg >= ops.board().cum_ack() => {
                            self.ropr_cursor = seg;
                            if ops.board().was_retransmitted(seg) {
                                if seg == ops.board().cum_ack() {
                                    return false;
                                }
                                continue;
                            }
                            ops.send_segment(seg, SendClass::Proactive);
                            return seg > ops.board().cum_ack();
                        }
                        _ => return false,
                    }
                }
            }
            RoprVariant::Forward => {
                // Ablation: lowest uncovered at-or-above the (ascending)
                // cursor. Reuses `ropr_cursor` as the ascending pointer,
                // initialised to batch_segs; treat that sentinel as 0.
                if self.ropr_cursor == self.batch_segs && !self.ropr_done {
                    self.ropr_cursor = 0;
                }
                let from = self.ropr_cursor.max(ops.board().cum_ack());
                let next = ops.board().uncovered_in(from, self.batch_segs, 1);
                match next.first() {
                    Some(&seg) => {
                        ops.send_segment(seg, SendClass::Proactive);
                        self.ropr_cursor = seg + 1;
                        self.ropr_cursor < self.batch_segs
                    }
                    None => false,
                }
            }
            _ => false,
        }
    }

    /// Enter the TCP fallback (§3.3) once the paced prefix is delivered and
    /// more data remains.
    fn maybe_enter_fallback(&mut self, ops: &mut Ops<'_, '_>) -> bool {
        if self.phase != HbPhase::Ropr
            || (self.batch_segs as u64) >= ops.total_segs() as u64
            || ops.board().cum_ack() < self.batch_segs
        {
            return false;
        }
        // Estimate the delivery rate s from ACK arrivals since pacing began.
        let elapsed = ops.now().saturating_since(self.pacing_started);
        let acked = ops.board().acked_bytes();
        let srtt = ops.rtt().srtt().unwrap_or(SimDuration::from_millis(100));
        let cwnd = if elapsed.is_zero() {
            2 * MSS as u64
        } else {
            // s * RTT, in bytes.
            ((acked as f64 / elapsed.as_secs_f64()) * srtt.as_secs_f64()) as u64
        };
        let reno = self.reactive.get_or_insert_with(|| {
            RenoEngine::new(RenoConfig {
                icw_segments: 2,
                ..Default::default()
            })
        });
        reno.set_cwnd(cwnd.clamp(2 * MSS as u64, ops.window_bytes() as u64));
        // Congestion avoidance from the start: ssthresh = cwnd.
        reno.set_ssthresh(reno.cwnd());
        reno.set_new_data_limit(None);
        self.phase = HbPhase::Fallback;
        reno.fill(ops, SendClass::FastRetx);
        true
    }
}

impl Default for Halfback {
    fn default() -> Self {
        Self::new()
    }
}

impl Strategy for Halfback {
    fn name(&self) -> &'static str {
        self.cfg.display_name()
    }

    fn on_established(&mut self, ops: &mut Ops<'_, '_>) {
        let window = ops.window_bytes() as u64;
        let threshold = self.cfg.pacing_threshold.unwrap_or(window);
        let batch_bytes = ops.flow_bytes().min(window).min(threshold);
        self.batch_segs = segment_count(batch_bytes).min(ops.total_segs()).max(1);
        self.pacing_started = ops.now();
        let rtt = ops.rtt().latest().unwrap_or(SimDuration::from_millis(100));

        // Optional §4.2.4 refinement: immediate head-start burst.
        let burst = self.cfg.burst_first_segments.min(self.batch_segs);
        for seg in 0..burst {
            ops.send_segment(seg, SendClass::New);
        }
        self.next_paced = burst;

        if self.next_paced >= self.batch_segs {
            self.enter_ropr(ops);
            return;
        }
        // Pace the remaining batch evenly across one RTT: first paced
        // segment now, the rest on ticks.
        let remaining = self.batch_segs - self.next_paced;
        let interval = rtt / remaining.max(1) as u64;
        ops.send_segment(self.next_paced, SendClass::New);
        self.next_paced += 1;
        if self.next_paced >= self.batch_segs {
            self.enter_ropr(ops);
        } else {
            ops.start_pacing(interval);
        }
    }

    fn on_pace_tick(&mut self, ops: &mut Ops<'_, '_>) -> PaceAction {
        if self.phase != HbPhase::Pacing || self.next_paced >= self.batch_segs {
            return PaceAction::Stop;
        }
        ops.send_segment(self.next_paced, SendClass::New);
        self.next_paced += 1;
        if self.next_paced >= self.batch_segs {
            self.enter_ropr(ops);
            PaceAction::Stop
        } else {
            PaceAction::Continue
        }
    }

    fn on_ack(&mut self, ops: &mut Ops<'_, '_>, _ack: &AckHeader, outcome: &AckOutcome) {
        match self.phase {
            HbPhase::Pacing => {
                // §3.2: ACKs received before all new packets are paced out
                // do not trigger proactive retransmission.
            }
            HbPhase::Ropr => {
                if self.maybe_enter_fallback(ops) {
                    return;
                }
                // Normal TCP machinery runs in parallel (window-governed
                // reactive retransmission with proper post-loss growth).
                let before = ops.counters().normal_retx;
                if let Some(r) = self.reactive.as_mut() {
                    r.on_ack(ops, outcome);
                }
                let sent_reactive = ops.counters().normal_retx > before;
                if self.skip_next_ropr {
                    // This ACK's budget went to a reactive retransmission.
                    self.skip_next_ropr = false;
                    return;
                }
                // Spend this ACK on ROPR only if the reactive engine left
                // it unused — Halfback sends at most ~one packet per ACK.
                if !sent_reactive {
                    self.ropr_step(ops);
                }
            }
            HbPhase::Fallback => {
                if let Some(f) = self.reactive.as_mut() {
                    f.on_ack(ops, outcome);
                }
            }
        }
    }

    fn on_loss_detected(&mut self, ops: &mut Ops<'_, '_>, newly_lost: &[SegId]) {
        match self.phase {
            HbPhase::Pacing => {
                // Stay paced; the scoreboard remembers, recovery starts
                // with the first post-pacing ACK.
            }
            HbPhase::Ropr => {
                // Normal TCP loss response (window-halving recovery); the
                // current ACK's ROPR budget is consumed by it.
                if let Some(r) = self.reactive.as_mut() {
                    r.on_loss(ops, newly_lost);
                    self.skip_next_ropr = true;
                }
            }
            HbPhase::Fallback => {
                if let Some(f) = self.reactive.as_mut() {
                    f.on_loss(ops, newly_lost);
                }
            }
        }
    }

    fn on_rto(&mut self, ops: &mut Ops<'_, '_>) {
        match self.phase {
            HbPhase::Pacing => {
                // Timeout mid-pacing (pathological): abandon pacing, go
                // reactive.
                ops.stop_pacing();
                self.enter_ropr(ops);
                self.ropr_done = true; // no proactive copies after an RTO
                if let Some(r) = self.reactive.as_mut() {
                    r.on_rto(ops);
                }
            }
            HbPhase::Ropr => {
                self.ropr_done = true;
                match self.reactive.as_mut() {
                    Some(r) => r.on_rto(ops),
                    None => {
                        if let Some(seg) = ops.board().first_uncovered() {
                            ops.send_segment(seg, SendClass::RtoRetx);
                        }
                    }
                }
            }
            HbPhase::Fallback => {
                if let Some(f) = self.reactive.as_mut() {
                    f.on_rto(ops);
                }
            }
        }
    }

    // The pacing threshold travels because AdaptiveHalfback derives it per
    // flow from its rate cache; the rest of the config is identical on every
    // sender of a scheme and comes back from the restore-side strategy
    // factory.
    netsim::snap_fields!(fn save_state, load_state {
        cfg.pacing_threshold,
        phase,
        batch_segs,
        next_paced,
        ropr_cursor,
        ropr_done,
        ratio_acc,
        skip_next_ropr,
        pacing_started,
        reactive,
    });
}
