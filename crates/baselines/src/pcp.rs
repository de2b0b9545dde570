//! PCP (\[7\], §2.2): probe-then-send endpoint congestion control.
//!
//! The sender emits short paced packet trains and inspects the one-way
//! delay trend across each train (echoed by the receiver). A flat trend
//! means the probed rate fits in the available bandwidth, so the rate is
//! doubled and probed again; a rising trend means queueing, so the sender
//! backs off, waits, and re-probes. Once a probe fails (or the rate covers
//! the whole flow in one RTT), data is paced at the last successful rate.
//!
//! This reproduces the paper's observations: probing costs whole RTTs
//! before any data moves (long FCT, §2.2), competing TCP keeps the queue
//! growing so PCP stays conservative (§4.2.3), and losses are rare
//! (Fig. 10(b)).

use netsim::{Rate, SimDuration};
use transport::scoreboard::AckOutcome;
use transport::sender::Ops;
use transport::strategy::{PaceAction, Strategy};
use transport::wire::{AckHeader, ProbeAckHeader, SegId, SendClass, MSS};

/// Probe packets per train.
const TRAIN_LEN: u32 = 5;
/// Wire size of one probe packet.
const PROBE_WIRE_BYTES: u32 = 1500;
/// Give up probing upward after this many successful doublings.
const MAX_ROUNDS: u32 = 12;
/// Consecutive failed probes tolerated before settling at the floor rate.
const MAX_FAILURES: u32 = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PcpPhase {
    Probing,
    Sending,
}

netsim::snap_enum!(PcpPhase { Probing = 0, Sending = 1 });

/// PCP: packet-train available-bandwidth probing, then rate-paced transfer.
#[derive(Debug)]
pub struct Pcp {
    phase: PcpPhase,
    /// Current probed/sending rate.
    rate: Rate,
    /// Last rate whose probe came back clean.
    last_good: Option<Rate>,
    train_id: u32,
    round: u32,
    failures: u32,
    /// (idx, sent_at_ns, recv_at_ns) for the in-flight train.
    replies: Vec<(u32, u64, u64)>,
    /// Next new segment to pace during Sending.
    next_seg: SegId,
    /// Last time the sending rate was additively increased (ns).
    last_bump_ns: u64,
    /// Last time a loss was detected (ns).
    last_loss_ns: u64,
}

impl Pcp {
    /// A fresh PCP sender.
    pub fn new() -> Self {
        Pcp {
            phase: PcpPhase::Probing,
            rate: Rate::from_bps(1), // set on establishment
            last_good: None,
            train_id: 0,
            round: 0,
            failures: 0,
            replies: Vec::new(),
            next_seg: 0,
            last_bump_ns: 0,
            last_loss_ns: 0,
        }
    }

    fn initial_rate(ops: &Ops<'_, '_>) -> Rate {
        // Two segments per RTT — comparable to TCP's initial window.
        let rtt = ops.rtt().latest().unwrap_or(SimDuration::from_millis(100));
        Rate::for_bytes_in(2 * MSS as u64, rtt).unwrap_or(Rate::from_kbps(100))
    }

    fn probe_spacing(&self) -> SimDuration {
        self.rate.transmission_time(PROBE_WIRE_BYTES)
    }

    fn launch_train(&mut self, ops: &mut Ops<'_, '_>) {
        self.train_id += 1;
        self.replies.clear();
        let spacing = self.probe_spacing();
        // Probes are paced by the chassis pace timer: first probe now, the
        // rest on ticks.
        ops.send_probe(self.train_id, 0, TRAIN_LEN, PROBE_WIRE_BYTES);
        ops.start_pacing(spacing);
        // Train timeout: if replies don't all arrive within 2 RTT + train
        // duration, count the probe as failed.
        let rtt = ops.rtt().srtt().unwrap_or(SimDuration::from_millis(100));
        let timeout = rtt.saturating_mul(2) + spacing.saturating_mul(TRAIN_LEN as u64);
        ops.arm_user_timer(timeout, self.train_id as u64);
    }

    /// Delay trend across the train: rising by more than half a probe
    /// spacing counts as queue buildup. A train sent at twice a
    /// bottleneck's rate rises by four spacings, so this reads a bottleneck
    /// of any rate. No fixed floor: at 50 Mbps that rise is 0.96 ms, under
    /// a 1 ms floor.
    fn train_congested(&self) -> bool {
        if self.replies.len() < 2 {
            return true; // lost probes = congestion
        }
        let mut sorted = self.replies.clone();
        sorted.sort_by_key(|r| r.0);
        let owd = |r: &(u32, u64, u64)| r.2 as i64 - r.1 as i64;
        let first = owd(&sorted[0]);
        let last = owd(sorted.last().unwrap());
        let rise = last - first;
        let spacing_ns = self.probe_spacing().as_nanos() as i64;
        rise > spacing_ns / 2 || sorted.len() < TRAIN_LEN as usize
    }

    fn on_train_result(&mut self, ops: &mut Ops<'_, '_>, congested: bool) {
        if self.phase != PcpPhase::Probing {
            return;
        }
        let rtt = ops.rtt().srtt().unwrap_or(SimDuration::from_millis(100));
        if congested {
            self.failures += 1;
            if let Some(good) = self.last_good {
                // We already know a working rate; settle there.
                self.rate = good;
                self.start_sending(ops);
            } else if self.failures >= MAX_FAILURES {
                // Never found a clean rate; trickle at the floor.
                self.start_sending(ops);
            } else {
                // Halve and retry after letting the queue drain.
                self.rate = self.rate.mul_f64(0.5).max(Rate::from_kbps(50));
                ops.arm_user_timer(rtt, u64::MAX); // re-probe trigger
            }
        } else {
            self.failures = 0;
            self.last_good = Some(self.rate);
            self.round += 1;
            // If the rate already moves the whole flow in about one RTT, or
            // we've probed enough, start sending.
            let needed = Rate::for_bytes_in(ops.flow_bytes(), rtt)
                .map(Rate::as_bps)
                .unwrap_or(u64::MAX);
            if self.rate.as_bps() >= needed || self.round >= MAX_ROUNDS {
                self.start_sending(ops);
            } else {
                self.rate = Rate::from_bps(self.rate.as_bps() * 2);
                self.launch_train(ops);
            }
        }
    }

    fn start_sending(&mut self, ops: &mut Ops<'_, '_>) {
        self.phase = PcpPhase::Sending;
        // Floor: never settle below a TCP-like two segments per RTT; PCP's
        // control loop (below) additively probes upward from there.
        let rtt = ops.rtt().srtt().unwrap_or(SimDuration::from_millis(100));
        let floor = Rate::for_bytes_in(2 * MSS as u64, rtt).unwrap_or(Rate::from_kbps(100));
        let rate = self.last_good.unwrap_or(self.rate).max(floor);
        self.rate = rate;
        let interval = rate.transmission_time(MSS + 40);
        // First data segment immediately, the rest paced.
        self.send_next(ops);
        ops.start_pacing(interval);
    }

    /// During Sending: lost-marked segments first, then new data.
    fn send_next(&mut self, ops: &mut Ops<'_, '_>) -> bool {
        if let Some(seg) = ops.board().first_lost() {
            ops.send_segment(seg, SendClass::FastRetx);
            return true;
        }
        if let Some(seg) = ops.board().next_unsent() {
            ops.send_segment(seg, SendClass::New);
            self.next_seg = seg + 1;
            return true;
        }
        false
    }
}

impl Default for Pcp {
    fn default() -> Self {
        Self::new()
    }
}

impl Strategy for Pcp {
    fn name(&self) -> &'static str {
        "PCP"
    }

    fn on_established(&mut self, ops: &mut Ops<'_, '_>) {
        self.rate = Self::initial_rate(ops);
        self.launch_train(ops);
    }

    fn on_pace_tick(&mut self, ops: &mut Ops<'_, '_>) -> PaceAction {
        match self.phase {
            PcpPhase::Probing => {
                // Probes after the first are sent on pace ticks; `next_seg`
                // doubles as the last-sent probe index while probing (it is
                // reset to 0 before Sending begins).
                let idx = self.next_seg + 1;
                if idx < TRAIN_LEN {
                    ops.send_probe(self.train_id, idx, TRAIN_LEN, PROBE_WIRE_BYTES);
                    self.next_seg = idx;
                    PaceAction::Continue
                } else {
                    self.next_seg = 0;
                    PaceAction::Stop
                }
            }
            PcpPhase::Sending => {
                if self.send_next(ops) {
                    PaceAction::Continue
                } else {
                    PaceAction::Stop
                }
            }
        }
    }

    fn on_probe_ack(&mut self, ops: &mut Ops<'_, '_>, pa: &ProbeAckHeader) {
        if self.phase != PcpPhase::Probing || pa.train != self.train_id {
            return;
        }
        self.replies
            .push((pa.idx, pa.sent_at.as_nanos(), pa.recv_at.as_nanos()));
        if self.replies.len() == TRAIN_LEN as usize {
            let congested = self.train_congested();
            ops.stop_pacing();
            self.next_seg = 0;
            self.on_train_result(ops, congested);
        }
    }

    fn on_user_timer(&mut self, ops: &mut Ops<'_, '_>, token: u64) {
        if self.phase != PcpPhase::Probing {
            return;
        }
        if token == u64::MAX {
            // Back-off wait elapsed: probe again at the reduced rate.
            self.launch_train(ops);
        } else if token == self.train_id as u64 && (self.replies.len() as u32) < TRAIN_LEN {
            // Train timed out with missing replies: congested.
            ops.stop_pacing();
            self.next_seg = 0;
            self.on_train_result(ops, true);
        }
    }

    fn on_ack(&mut self, ops: &mut Ops<'_, '_>, _ack: &AckHeader, _outcome: &AckOutcome) {
        if self.phase == PcpPhase::Sending {
            // PCP's steady-state control: additively increase the rate by
            // one segment per RTT while no loss is observed (the emulated
            // rate-based additive increase of the PCP paper), so a train
            // that settled conservatively can climb back up.
            let now = ops.now().as_nanos();
            let srtt = ops
                .rtt()
                .srtt()
                .unwrap_or(SimDuration::from_millis(100))
                .as_nanos();
            if now.saturating_sub(self.last_bump_ns) >= srtt
                && now.saturating_sub(self.last_loss_ns) >= 2 * srtt
            {
                self.last_bump_ns = now;
                let inc = Rate::for_bytes_in(MSS as u64, SimDuration::from_nanos(srtt))
                    .map(Rate::as_bps)
                    .unwrap_or(0);
                self.rate = Rate::from_bps(self.rate.as_bps() + inc);
                ops.set_pace_interval(self.rate.transmission_time(MSS + 40));
            }
        }
        if self.phase == PcpPhase::Sending && !ops.pacing_active() {
            // The pacer stopped (nothing left to send) but an un-ACKed loss
            // may have been marked since; resume if there is work.
            if ops.board().first_lost().is_some() || ops.board().next_unsent().is_some() {
                let interval = self.rate.transmission_time(MSS + 40);
                self.send_next(ops);
                ops.start_pacing(interval);
            }
        }
    }

    fn on_loss_detected(&mut self, ops: &mut Ops<'_, '_>, _newly_lost: &[SegId]) {
        if self.phase == PcpPhase::Sending {
            // Loss at the sending rate: halve it.
            self.last_loss_ns = ops.now().as_nanos();
            self.rate = self.rate.mul_f64(0.5).max(Rate::from_kbps(50));
            ops.set_pace_interval(self.rate.transmission_time(MSS + 40));
        }
    }

    fn on_rto(&mut self, ops: &mut Ops<'_, '_>) {
        match self.phase {
            PcpPhase::Probing => {
                // Nothing outstanding but probes; re-probe conservatively.
                self.rate = self.rate.mul_f64(0.5).max(Rate::from_kbps(50));
                self.launch_train(ops);
            }
            PcpPhase::Sending => {
                self.rate = self.rate.mul_f64(0.5).max(Rate::from_kbps(50));
                if let Some(seg) = ops.board().first_uncovered() {
                    ops.send_segment(seg, SendClass::RtoRetx);
                }
                ops.start_pacing(self.rate.transmission_time(MSS + 40));
            }
        }
    }

    netsim::snap_fields!(fn save_state, load_state {
        phase,
        rate,
        last_good,
        train_id,
        round,
        failures,
        replies,
        next_seg,
        last_bump_ns,
        last_loss_ns,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A PCP sender probing at `probe` with the replies its train gets
    /// through a bottleneck of `bottleneck`: probe k leaves at k spacings
    /// and the bottleneck one serialization after the later of its arrival
    /// and the previous probe's departure.
    fn train_through(probe: Rate, bottleneck: Rate) -> Pcp {
        let mut pcp = Pcp::new();
        pcp.rate = probe;
        let spacing = pcp.probe_spacing().as_nanos();
        let ser = bottleneck.transmission_time(PROBE_WIRE_BYTES).as_nanos();
        let mut free = 0;
        for k in 0..TRAIN_LEN {
            let sent = k as u64 * spacing;
            free = free.max(sent) + ser;
            pcp.replies.push((k, sent, free));
        }
        pcp
    }

    #[test]
    fn a_train_at_twice_the_bottleneck_reads_congested() {
        for mbps in [1, 10, 50, 100, 1_000] {
            let bottleneck = Rate::from_mbps(mbps);
            let over = train_through(Rate::from_mbps(2 * mbps), bottleneck);
            assert!(over.train_congested(), "{mbps} Mbps probed at twice");
            let under = train_through(Rate::from_kbps(500 * mbps), bottleneck);
            assert!(!under.train_congested(), "{mbps} Mbps probed at half");
        }
    }
}
