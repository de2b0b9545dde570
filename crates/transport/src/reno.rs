//! A SACK-based NewReno-style congestion control engine.
//!
//! This is the piece most schemes share: slow start from a configurable
//! initial window, congestion avoidance, fast retransmit/recovery driven by
//! the scoreboard's SACK loss detection, and RTO recovery. Baselines wrap
//! it directly (TCP, TCP-10, Reactive, Proactive, TCP-Cache); JumpStart
//! falls back to it after its paced first RTT (with `burst_retransmit` for
//! its line-rate loss recovery); Halfback seeds it from the ROPR bandwidth
//! estimate when a flow exceeds the Pacing Threshold.

use crate::scoreboard::AckOutcome;
use crate::sender::Ops;
use crate::trace::FlowEvent;
use crate::wire::{SegId, SendClass, MSS};

/// Static configuration of a [`RenoEngine`].
#[derive(Debug, Clone)]
pub struct RenoConfig {
    /// Initial congestion window in segments (paper default 2; TCP-10
    /// uses 10).
    pub icw_segments: u32,
    /// JumpStart mode: on loss detection, retransmit every lost segment
    /// immediately, ignoring the congestion window ("bursty retransmission",
    /// §2.2).
    pub burst_retransmit: bool,
    /// Proactive TCP mode: transmit two copies of every new segment, both
    /// charged against the window (\[18\]; §2.2 "doubles the workload").
    pub duplicate_new_segments: bool,
}

netsim::snap_struct!(RenoConfig {
    icw_segments,
    burst_retransmit,
    duplicate_new_segments,
});

impl Default for RenoConfig {
    fn default() -> Self {
        RenoConfig {
            icw_segments: 2,
            burst_retransmit: false,
            duplicate_new_segments: false,
        }
    }
}

/// The engine's live state.
#[derive(Debug, Clone)]
pub struct RenoEngine {
    cfg: RenoConfig,
    cwnd: u64,
    ssthresh: u64,
    in_recovery: bool,
    recovery_point: SegId,
    /// Segments at or above this index are never sent as *new* data (used
    /// by Halfback while its aggressive phase owns the paced prefix);
    /// retransmissions are unaffected.
    max_new_seg: Option<SegId>,
    /// Proactive mode: duplicates owed because the window was full when
    /// their segment was first sent ("two copies of every packet" means
    /// every packet, so the twin is sent as soon as the window opens).
    dup_owed: Vec<SegId>,
}

// Configuration and live window state both ride along, so a restored
// strategy needs no re-configuration.
netsim::snap_struct!(RenoEngine {
    cfg,
    cwnd,
    ssthresh,
    in_recovery,
    recovery_point,
    max_new_seg,
    dup_owed,
});

impl RenoEngine {
    /// Create an engine with the given configuration.
    pub fn new(cfg: RenoConfig) -> Self {
        let cwnd = cfg.icw_segments as u64 * MSS as u64;
        RenoEngine {
            cfg,
            cwnd,
            // Effectively infinite: slow start runs until the first loss.
            ssthresh: u64::MAX / 2,
            in_recovery: false,
            recovery_point: 0,
            max_new_seg: None,
            dup_owed: Vec::new(),
        }
    }

    /// Current congestion window in bytes.
    pub fn cwnd(&self) -> u64 {
        self.cwnd
    }

    /// Current slow-start threshold in bytes.
    pub fn ssthresh(&self) -> u64 {
        self.ssthresh
    }

    /// Overwrite the window (Halfback fallback seeds `s * RTT`; TCP-Cache
    /// restores a cached window).
    pub fn set_cwnd(&mut self, cwnd_bytes: u64) {
        self.cwnd = cwnd_bytes.max(MSS as u64);
    }

    /// Overwrite the slow-start threshold.
    pub fn set_ssthresh(&mut self, ssthresh_bytes: u64) {
        self.ssthresh = ssthresh_bytes.max(2 * MSS as u64);
    }

    /// In fast recovery?
    pub fn in_recovery(&self) -> bool {
        self.in_recovery
    }

    /// Restrict new-data transmission to segments below `limit` (`None`
    /// lifts the restriction). Retransmissions are never restricted.
    pub fn set_new_data_limit(&mut self, limit: Option<SegId>) {
        self.max_new_seg = limit;
    }

    /// Effective send window: min(cwnd, advertised flow-control window).
    pub fn effective_window(&self, ops: &Ops<'_, '_>) -> u64 {
        self.cwnd.min(ops.window_bytes() as u64)
    }

    /// Handshake done: open with the initial window.
    pub fn on_established(&mut self, ops: &mut Ops<'_, '_>) {
        self.fill(ops, SendClass::FastRetx);
    }

    /// Transmit as much as the window allows: pending (lost-marked)
    /// retransmissions first, then new data. `retx_class` records why a
    /// retransmission happened (FastRetx in normal operation, RtoRetx from
    /// the RTO handler).
    pub fn fill(&mut self, ops: &mut Ops<'_, '_>, retx_class: SendClass) {
        loop {
            let wnd = self.effective_window(ops);
            if ops.board().pipe_bytes() + MSS as u64 > wnd {
                return;
            }
            // Pending retransmissions take priority.
            if let Some(seg) = ops.board().first_lost() {
                ops.send_segment(seg, retx_class);
                continue;
            }
            // Owed proactive duplicates next (skipping covered segments).
            if self.cfg.duplicate_new_segments {
                while let Some(&seg) = self.dup_owed.last() {
                    if ops.board().is_covered(seg) {
                        self.dup_owed.pop();
                        continue;
                    }
                    ops.send_segment(seg, SendClass::Proactive);
                    self.dup_owed.pop();
                    break;
                }
                if ops.board().pipe_bytes() + MSS as u64 > self.effective_window(ops) {
                    return;
                }
            }
            // Then new data.
            match ops.board().next_unsent() {
                Some(seg) if self.max_new_seg.is_none_or(|lim| seg < lim) => {
                    ops.send_segment(seg, SendClass::New);
                    if self.cfg.duplicate_new_segments {
                        // Second copy, charged to the window like the first;
                        // if the window is full the twin is owed and goes
                        // out as soon as space opens.
                        let wnd = self.effective_window(ops);
                        if ops.board().pipe_bytes() + MSS as u64 <= wnd {
                            ops.send_segment(seg, SendClass::Proactive);
                        } else {
                            self.dup_owed.push(seg);
                        }
                    }
                }
                _ => return,
            }
        }
    }

    /// Emit a `CwndUpdate` trace event if the window state moved away from
    /// `prev` — before the subsequent `fill`, so the update precedes the
    /// sends it causes in the recorded stream.
    fn trace_window(&self, ops: &mut Ops<'_, '_>, prev: (u64, u64)) {
        if (self.cwnd, self.ssthresh) != prev {
            ops.record(FlowEvent::CwndUpdate {
                cwnd: self.cwnd,
                ssthresh: self.ssthresh,
            });
        }
    }

    /// Window growth plus recovery bookkeeping; call from `Strategy::on_ack`.
    pub fn on_ack(&mut self, ops: &mut Ops<'_, '_>, outcome: &AckOutcome) {
        let prev = (self.cwnd, self.ssthresh);
        if self.in_recovery {
            if ops.board().cum_ack() >= self.recovery_point {
                self.in_recovery = false;
                self.cwnd = self.ssthresh.max(MSS as u64);
            }
        } else if outcome.newly_acked_bytes > 0 {
            if self.cwnd < self.ssthresh {
                // Slow start with byte counting.
                self.cwnd += outcome.newly_acked_bytes;
            } else {
                // Congestion avoidance: ~one MSS per RTT.
                let inc = (MSS as u64 * MSS as u64 / self.cwnd.max(1)).max(1);
                self.cwnd += inc;
            }
        }
        self.trace_window(ops, prev);
        self.fill(ops, SendClass::FastRetx);
    }

    /// SACK loss detection fired; enter (or continue) fast recovery.
    pub fn on_loss(&mut self, ops: &mut Ops<'_, '_>, _newly_lost: &[SegId]) {
        if !self.in_recovery {
            let prev = (self.cwnd, self.ssthresh);
            self.in_recovery = true;
            self.recovery_point = ops.board().high_sent();
            self.ssthresh = (self.cwnd / 2).max(2 * MSS as u64);
            self.cwnd = self.ssthresh;
            self.trace_window(ops, prev);
        }
        if self.cfg.burst_retransmit {
            // JumpStart: blast every pending retransmission immediately.
            loop {
                let lost = ops.board().lost_segments(64);
                if lost.is_empty() {
                    break;
                }
                for seg in lost {
                    ops.send_segment(seg, SendClass::FastRetx);
                }
            }
        } else {
            self.fill(ops, SendClass::FastRetx);
        }
    }

    /// RTO fired (scoreboard already reset); slow-start restart.
    pub fn on_rto(&mut self, ops: &mut Ops<'_, '_>) {
        let prev = (self.cwnd, self.ssthresh);
        self.ssthresh = (self.cwnd / 2).max(2 * MSS as u64);
        self.cwnd = MSS as u64;
        self.in_recovery = false;
        self.trace_window(ops, prev);
        if self.cfg.burst_retransmit {
            // JumpStart: every unacknowledged packet goes out again in one
            // line-rate burst (§2.2: "will aggressively burst out all lost
            // packets and will often incur even more loss"). If part of
            // this burst is dropped, only the next (backed-off) RTO can
            // recover it — the paper's collapse mechanism.
            loop {
                let lost = ops.board().lost_segments(64);
                if lost.is_empty() {
                    break;
                }
                for seg in lost {
                    ops.send_segment(seg, SendClass::RtoRetx);
                }
            }
            return;
        }
        // Standard TCP: retransmit the first uncovered segment; the ACK
        // clock rebuilds from there.
        if let Some(seg) = ops.board().first_uncovered() {
            ops.send_segment(seg, SendClass::RtoRetx);
        }
    }
}

// Unit tests for RenoEngine live in `tests/reno_behaviour.rs` style module
// tests inside the baselines crate, where a full simulator harness exists;
// pure-state tests below cover the window arithmetic.
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_window_matches_config() {
        let e = RenoEngine::new(RenoConfig::default());
        assert_eq!(e.cwnd(), 2 * MSS as u64);
        let e10 = RenoEngine::new(RenoConfig {
            icw_segments: 10,
            ..Default::default()
        });
        assert_eq!(e10.cwnd(), 10 * MSS as u64);
    }

    #[test]
    fn setters_clamp() {
        let mut e = RenoEngine::new(RenoConfig::default());
        e.set_cwnd(0);
        assert_eq!(e.cwnd(), MSS as u64);
        e.set_ssthresh(0);
        assert_eq!(e.ssthresh(), 2 * MSS as u64);
        e.set_cwnd(100_000);
        assert_eq!(e.cwnd(), 100_000);
    }
}
