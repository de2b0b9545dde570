//! The sender chassis shared by every scheme.
//!
//! Owns the mechanics common to all eight protocols: the SYN handshake,
//! the scoreboard, RTT estimation and the retransmission timer, the pacing
//! and probe timers, and per-flow accounting ([`FlowRecord`]). Policy is
//! delegated to a [`Strategy`].

use crate::host::HostCore;
use crate::rtt::RttEstimator;
use crate::scoreboard::Scoreboard;
use crate::strategy::{PaceAction, Strategy};
use crate::trace::FlowEvent;
use crate::wire::{
    seg_wire_bytes, segment_count, AckHeader, DataHeader, Header, ProbeAckHeader, ProbeHeader,
    SegId, SendClass, CTRL_WIRE_BYTES, DEFAULT_FCW_BYTES, MSS,
};
use netsim::engine::EngineCore;
use netsim::rng::SimRng;
use netsim::snap::{Snap, SnapError, SnapReader, SnapWriter};
use netsim::{snap_enum, snap_struct, snap_via};
use netsim::{Ctx, FlowId, LinkId, NodeId, Packet, SimDuration, SimTime, TimerId};

/// Which chassis timer a host token routes to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimerKind {
    /// Retransmission timeout (also drives SYN retries).
    Rto,
    /// Pacing tick.
    Pace,
    /// Probe timeout (tail loss probe).
    Pto,
    /// Strategy-defined timer carrying a strategy token.
    User(u64),
}

impl Snap for TimerKind {
    fn save(&self, w: &mut SnapWriter) {
        match self {
            TimerKind::Rto => w.u8(0),
            TimerKind::Pace => w.u8(1),
            TimerKind::Pto => w.u8(2),
            TimerKind::User(token) => {
                w.u8(3);
                w.put(token);
            }
        }
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(match r.u8()? {
            0 => TimerKind::Rto,
            1 => TimerKind::Pace,
            2 => TimerKind::Pto,
            3 => TimerKind::User(r.get()?),
            tag => {
                return Err(SnapError::Tag {
                    ty: "TimerKind",
                    tag,
                })
            }
        })
    }
}

/// Connection phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    SynSent,
    Established,
    Done,
    /// Terminal give-up state: the retransmission or SYN retry budget was
    /// exhausted (pathological path). Surfaced as [`FlowOutcome::Aborted`].
    Aborted,
}

snap_enum!(Phase {
    SynSent = 0,
    Established = 1,
    Done = 2,
    Aborted = 3,
});

/// Why a flow gave up (see [`FlowOutcome::Aborted`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortReason {
    /// [`MAX_RTO_RETRIES`] consecutive retransmission timeouts without any
    /// cumulative progress.
    MaxRetransmits,
    /// [`MAX_SYN_RETRIES`] SYN retransmissions went unanswered.
    SynTimeout,
}

snap_enum!(AbortReason {
    MaxRetransmits = 0,
    SynTimeout = 1,
});

impl AbortReason {
    /// Stable name used in trace output and summaries.
    pub fn as_str(self) -> &'static str {
        match self {
            AbortReason::MaxRetransmits => "max_retransmits",
            AbortReason::SynTimeout => "syn_timeout",
        }
    }
}

/// How a flow ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowOutcome {
    /// Every payload byte was cumulatively acknowledged.
    Completed,
    /// The sender gave up; the flow is over but the data never fully
    /// arrived.
    Aborted(AbortReason),
}

snap_via!(
    FlowOutcome as Option<AbortReason>,
    |o| match o {
        FlowOutcome::Completed => None,
        FlowOutcome::Aborted(why) => Some(*why),
    },
    |why| Ok(why.map_or(FlowOutcome::Completed, FlowOutcome::Aborted))
);

impl FlowOutcome {
    /// Did the flow deliver all its data?
    pub fn is_completed(&self) -> bool {
        matches!(self, FlowOutcome::Completed)
    }
}

/// Consecutive RTO-driven retransmission rounds (without cumulative
/// progress) before an established connection aborts. Six rounds with the
/// 1 s minimum RTO and binary backoff means giving up ~63 s after the last
/// forward progress — the ballpark of Linux's `tcp_retries2`-governed
/// give-up, scaled down for simulation horizons.
pub const MAX_RTO_RETRIES: u32 = 6;

/// SYN retransmissions before the handshake aborts (Linux default
/// `tcp_syn_retries` is 6; we give up one earlier, ~63 s in).
pub const MAX_SYN_RETRIES: u32 = 5;

/// Per-flow transmission accounting (the quantities the paper reports).
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// Data packets transmitted (all classes).
    pub data_packets_sent: u64,
    /// Normal (reactive) retransmissions: fast-retransmit, RTO, probe.
    pub normal_retx: u64,
    /// Proactive copies (ROPR / Proactive TCP duplicates).
    pub proactive_retx: u64,
    /// RTO events.
    pub rto_events: u64,
    /// Total wire bytes sent (data + control).
    pub wire_bytes_sent: u64,
    /// ACK packets received.
    pub acks_received: u64,
    /// PCP probe packets sent.
    pub probes_sent: u64,
    /// SYN (re)transmissions.
    pub syn_sent: u64,
}

snap_struct!(Counters {
    data_packets_sent,
    normal_retx,
    proactive_retx,
    rto_events,
    wire_bytes_sent,
    acks_received,
    probes_sent,
    syn_sent,
});

/// Final record of a completed flow.
#[derive(Debug, Clone)]
pub struct FlowRecord {
    /// Flow id.
    pub flow: FlowId,
    /// Strategy name.
    pub protocol: &'static str,
    /// Payload bytes.
    pub bytes: u64,
    /// When the sender issued the first SYN.
    pub start: SimTime,
    /// When the handshake completed.
    pub established_at: SimTime,
    /// When the final cumulative ACK arrived at the sender.
    pub done_at: SimTime,
    /// Flow completion time including connection setup (paper §4.2.1).
    pub fct: SimDuration,
    /// Transmission accounting.
    pub counters: Counters,
    /// Smallest RTT sample observed.
    pub min_rtt: Option<SimDuration>,
    /// How the flow ended. For aborted flows `done_at`/`fct` record the
    /// give-up instant, not a completion.
    pub outcome: FlowOutcome,
}

snap_struct!(FlowRecord {
    flow,
    protocol,
    bytes,
    start,
    established_at,
    done_at,
    fct,
    counters,
    min_rtt,
    outcome,
});

/// Mutable per-flow sender state (everything but the strategy box).
pub struct SenderState {
    pub(crate) flow: FlowId,
    pub(crate) local: NodeId,
    pub(crate) peer: NodeId,
    pub(crate) egress: LinkId,
    pub(crate) total_bytes: u64,
    pub(crate) window_bytes: u32,
    pub(crate) phase: Phase,
    pub(crate) start_time: SimTime,
    pub(crate) established_at: Option<SimTime>,
    pub(crate) syn_sent_at: SimTime,
    pub(crate) board: Scoreboard,
    pub(crate) rtt: RttEstimator,
    pub(crate) counters: Counters,
    pub(crate) proto_name: &'static str,
    rto_timer: Option<(TimerId, u64)>,
    pace_timer: Option<(TimerId, u64)>,
    pace_interval: SimDuration,
    pto_timer: Option<(TimerId, u64)>,
    user_timers: Vec<(TimerId, u64)>,
}

// Timer ids travel verbatim: the engine snapshot restores its timer slot
// table bit-exactly, so they stay valid across a restore. `proto_name` comes
// back from the restore-side strategy (see [`SenderConn::load`]).
snap_struct!(SenderState {
    flow,
    local,
    peer,
    egress,
    total_bytes,
    window_bytes,
    phase,
    start_time,
    established_at,
    syn_sent_at,
    board,
    rtt,
    counters,
    rto_timer,
    pace_timer,
    pace_interval,
    pto_timer,
    user_timers;
    proto_name,
});

/// The chassis view handed to strategies.
pub struct Ops<'a, 'b> {
    pub(crate) st: &'a mut SenderState,
    pub(crate) shared: &'a mut HostCore,
    pub(crate) ctx: &'a mut Ctx<'b, Header>,
}

impl<'a, 'b> Ops<'a, 'b> {
    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.ctx.now()
    }

    /// Engine RNG (deterministic, seeded per run).
    pub fn rng(&mut self) -> &mut SimRng {
        self.ctx.rng()
    }

    /// The scoreboard.
    pub fn board(&self) -> &Scoreboard {
        &self.st.board
    }

    /// The RTT estimator.
    pub fn rtt(&self) -> &RttEstimator {
        &self.st.rtt
    }

    /// Accounting so far.
    pub fn counters(&self) -> &Counters {
        &self.st.counters
    }

    /// Payload size of the flow in bytes.
    pub fn flow_bytes(&self) -> u64 {
        self.st.total_bytes
    }

    /// Number of segments in the flow.
    pub fn total_segs(&self) -> u32 {
        self.st.board.total_segs()
    }

    /// Receiver's advertised flow-control window in bytes.
    pub fn window_bytes(&self) -> u32 {
        self.st.window_bytes
    }

    /// Maximum segment payload size.
    pub fn mss(&self) -> u32 {
        MSS
    }

    /// When the handshake completed (valid in every strategy hook).
    pub fn established_at(&self) -> SimTime {
        self.st.established_at.unwrap_or(self.st.start_time)
    }

    /// Record a transport trace event for this flow (no-op unless the host
    /// has a flight recorder installed). Strategies use this for events the
    /// chassis cannot see, e.g. Halfback's ROPR/ACK meet point.
    #[inline]
    pub fn record(&mut self, event: FlowEvent) {
        self.shared.record(self.ctx.now(), self.st.flow, event);
    }

    /// Transmit one segment with the given class. Updates the scoreboard
    /// and accounting, and makes sure the RTO is armed.
    pub fn send_segment(&mut self, seg: SegId, class: SendClass) {
        debug_assert!(seg < self.total_segs());
        let wire = seg_wire_bytes(self.st.total_bytes, seg);
        let pkt = Packet::new(
            self.st.flow,
            self.st.local,
            self.st.peer,
            wire,
            Header::Data(DataHeader { seg, class }),
        );
        self.ctx.send(self.st.egress, pkt);
        self.st.board.on_transmit(seg);
        self.st.counters.data_packets_sent += 1;
        self.st.counters.wire_bytes_sent += wire as u64;
        if class.is_normal_retx() {
            self.st.counters.normal_retx += 1;
        } else if class.is_proactive() {
            self.st.counters.proactive_retx += 1;
        }
        self.record(FlowEvent::SegmentSent {
            seg,
            class,
            wire_bytes: wire,
        });
        if self.st.rto_timer.is_none() {
            let after = self.st.rtt.rto();
            self.arm_rto(after);
        }
    }

    /// Send a PCP probe packet of `wire_bytes`.
    pub fn send_probe(&mut self, train: u32, idx: u32, len: u32, wire_bytes: u32) {
        let pkt = Packet::new(
            self.st.flow,
            self.st.local,
            self.st.peer,
            wire_bytes,
            Header::Probe(ProbeHeader { train, idx, len }),
        );
        self.ctx.send(self.st.egress, pkt);
        self.st.counters.probes_sent += 1;
        self.st.counters.wire_bytes_sent += wire_bytes as u64;
    }

    /// Start (or restart) the pacing timer with the given tick interval.
    /// The first tick fires one interval from now.
    pub fn start_pacing(&mut self, interval: SimDuration) {
        self.stop_pacing();
        let interval = interval.max(SimDuration::from_nanos(1));
        self.st.pace_interval = interval;
        let token = self.shared.alloc_token(self.st.flow, TimerKind::Pace);
        let id = self.ctx.set_timer(interval, token);
        self.st.pace_timer = Some((id, token));
        self.record(FlowEvent::PacingStarted {
            interval_ns: interval.as_nanos(),
        });
    }

    /// Change the tick interval used when the current tick re-arms.
    pub fn set_pace_interval(&mut self, interval: SimDuration) {
        self.st.pace_interval = interval.max(SimDuration::from_nanos(1));
    }

    /// The current pacing interval.
    pub fn pace_interval(&self) -> SimDuration {
        self.st.pace_interval
    }

    /// Cancel the pacing timer.
    pub fn stop_pacing(&mut self) {
        if let Some((id, token)) = self.st.pace_timer.take() {
            self.ctx.cancel_timer(id);
            self.shared.drop_token(token);
            self.record(FlowEvent::PacingStopped);
        }
    }

    /// Is the pacing timer armed?
    pub fn pacing_active(&self) -> bool {
        self.st.pace_timer.is_some()
    }

    /// Arm (or re-arm) the probe timeout.
    pub fn arm_pto(&mut self, after: SimDuration) {
        self.cancel_pto();
        let token = self.shared.alloc_token(self.st.flow, TimerKind::Pto);
        let id = self.ctx.set_timer(after, token);
        self.st.pto_timer = Some((id, token));
    }

    /// Cancel the probe timeout.
    pub fn cancel_pto(&mut self) {
        if let Some((id, token)) = self.st.pto_timer.take() {
            self.ctx.cancel_timer(id);
            self.shared.drop_token(token);
        }
    }

    /// Arm a strategy timer that will arrive via `Strategy::on_user_timer`.
    pub fn arm_user_timer(&mut self, after: SimDuration, token: u64) {
        let host_token = self
            .shared
            .alloc_token(self.st.flow, TimerKind::User(token));
        let id = self.ctx.set_timer(after, host_token);
        self.st.user_timers.push((id, host_token));
    }

    fn arm_rto(&mut self, after: SimDuration) {
        self.cancel_rto();
        let token = self.shared.alloc_token(self.st.flow, TimerKind::Rto);
        let id = self.ctx.set_timer(after, token);
        self.st.rto_timer = Some((id, token));
    }

    fn cancel_rto(&mut self) {
        if let Some((id, token)) = self.st.rto_timer.take() {
            self.ctx.cancel_timer(id);
            self.shared.drop_token(token);
        }
    }
}

/// A sender endpoint: chassis state plus the plugged-in strategy.
pub struct SenderConn {
    pub(crate) state: SenderState,
    strategy: Option<Box<dyn Strategy>>,
}

impl SenderConn {
    /// Create a sender for a flow of `bytes` payload bytes.
    pub fn new(
        flow: FlowId,
        local: NodeId,
        peer: NodeId,
        egress: LinkId,
        bytes: u64,
        strategy: Box<dyn Strategy>,
    ) -> Self {
        assert!(bytes > 0, "flows must carry at least one byte");
        let segs = segment_count(bytes);
        let proto_name = strategy.name();
        let board = Scoreboard::new(bytes, segs, strategy.naive_loss_remarking());
        SenderConn {
            state: SenderState {
                flow,
                local,
                peer,
                egress,
                total_bytes: bytes,
                window_bytes: DEFAULT_FCW_BYTES,
                phase: Phase::SynSent,
                start_time: SimTime::ZERO,
                established_at: None,
                syn_sent_at: SimTime::ZERO,
                board,
                rtt: RttEstimator::new(),
                counters: Counters::default(),
                proto_name,
                rto_timer: None,
                pace_timer: None,
                pace_interval: SimDuration::from_millis(1),
                pto_timer: None,
                user_timers: Vec::new(),
            },
            strategy: Some(strategy),
        }
    }

    /// Protocol name.
    pub fn protocol(&self) -> &'static str {
        self.state.proto_name
    }

    /// The flow id.
    pub fn flow(&self) -> FlowId {
        self.state.flow
    }

    /// When the flow started.
    pub fn start_time(&self) -> SimTime {
        self.state.start_time
    }

    /// Payload bytes of the flow.
    pub fn bytes(&self) -> u64 {
        self.state.total_bytes
    }

    /// Has the flow reached a terminal state (completed or aborted)?
    pub fn is_done(&self) -> bool {
        matches!(self.state.phase, Phase::Done | Phase::Aborted)
    }

    /// Highest cumulative ACK the sender has seen, in segments. Exposed so
    /// invariant checkers can assert it never moves backwards.
    pub fn cum_ack(&self) -> u32 {
        self.state.board.cum_ack()
    }

    /// Total segments in the flow (for cross-endpoint invariant checks).
    pub fn total_segs(&self) -> u32 {
        self.state.board.total_segs()
    }

    /// Read-only accounting.
    pub fn counters(&self) -> &Counters {
        &self.state.counters
    }

    /// Override the minimum RTO (sensitivity studies).
    pub fn set_min_rto(&mut self, floor: SimDuration) {
        self.state.rtt.set_min_rto(floor);
    }

    /// Serialize the full sender state — chassis, then the strategy's name
    /// and its own state — into the engine checkpoint codec.
    pub fn save(&self, w: &mut SnapWriter) {
        let strategy = self.strategy.as_ref().expect("strategy re-entrancy");
        w.put(&self.state);
        w.put(&strategy.name());
        strategy.save_state(w);
    }

    /// Rebuild a sender saved by [`SenderConn::save`]. `strategy` must be a
    /// freshly constructed strategy of the same scheme (validated by name);
    /// its dynamic state is restored through [`Strategy::load_state`].
    pub fn load(
        r: &mut SnapReader<'_>,
        mut strategy: Box<dyn Strategy>,
    ) -> Result<Self, SnapError> {
        let mut state: SenderState = r.get()?;
        let saved_name: String = r.get()?;
        if saved_name != strategy.name() {
            return Err(SnapError::Unsupported(format!(
                "sender for flow {:?} was saved with strategy {saved_name:?}, \
                 restore offered {:?} (config drift?)",
                state.flow,
                strategy.name()
            )));
        }
        strategy.load_state(r)?;
        state.proto_name = strategy.name();
        Ok(SenderConn {
            state,
            strategy: Some(strategy),
        })
    }

    /// Kick off the connection: send the SYN and arm the handshake timer.
    /// Called from outside dispatch, so it uses the engine core directly.
    pub fn start(&mut self, shared: &mut HostCore, core: &mut EngineCore<Header>) {
        let now = core.now();
        self.state.start_time = now;
        self.send_syn_via(shared, core);
    }

    fn send_syn_via(&mut self, shared: &mut HostCore, core: &mut EngineCore<Header>) {
        let st = &mut self.state;
        st.syn_sent_at = core.now();
        st.counters.syn_sent += 1;
        st.counters.wire_bytes_sent += CTRL_WIRE_BYTES as u64;
        shared.record(
            core.now(),
            st.flow,
            FlowEvent::SynSent {
                attempt: st.counters.syn_sent as u32,
            },
        );
        let pkt = Packet::new(
            st.flow,
            st.local,
            st.peer,
            CTRL_WIRE_BYTES,
            Header::Syn {
                flow_bytes: st.total_bytes,
            },
        );
        core.send_on(st.egress, pkt);
        // Handshake timer via the RTO slot.
        if let Some((id, token)) = st.rto_timer.take() {
            core.cancel_timer(id);
            shared.drop_token(token);
        }
        let token = shared.alloc_token(st.flow, TimerKind::Rto);
        let id = core.set_timer(st.local, st.rtt.rto(), token);
        st.rto_timer = Some((id, token));
    }

    fn with_ops<R>(
        &mut self,
        shared: &mut HostCore,
        ctx: &mut Ctx<'_, Header>,
        f: impl FnOnce(&mut dyn Strategy, &mut Ops<'_, '_>) -> R,
    ) -> R {
        let mut strategy = self.strategy.take().expect("strategy re-entrancy");
        let r = {
            let mut ops = Ops {
                st: &mut self.state,
                shared,
                ctx,
            };
            f(strategy.as_mut(), &mut ops)
        };
        self.strategy = Some(strategy);
        r
    }

    /// Handle the SYN-ACK: sample the RTT, note the advertised window, and
    /// hand control to the strategy.
    pub fn handle_syn_ack(
        &mut self,
        shared: &mut HostCore,
        ctx: &mut Ctx<'_, Header>,
        window: u32,
    ) {
        if self.state.phase != Phase::SynSent {
            return; // duplicate SYN-ACK
        }
        let now = ctx.now();
        let sample = now.saturating_since(self.state.syn_sent_at);
        self.state.rtt.on_sample(sample);
        self.state.rtt.reset_backoff();
        self.state.window_bytes = window;
        self.state.phase = Phase::Established;
        self.state.established_at = Some(now);
        shared.record(now, self.state.flow, FlowEvent::Established { window });
        self.with_ops(shared, ctx, |s, ops| s.on_established(ops));
        self.rearm_rto_after_progress(shared, ctx);
    }

    /// Handle a data ACK.
    pub fn handle_ack(
        &mut self,
        shared: &mut HostCore,
        ctx: &mut Ctx<'_, Header>,
        ack: &AckHeader,
    ) {
        if self.state.phase != Phase::Established {
            return;
        }
        let now = ctx.now();
        self.state.counters.acks_received += 1;
        let sample = now.saturating_since(ack.echo_tx_time);
        self.state.rtt.on_sample(sample);
        self.state.window_bytes = ack.window;

        let outcome = self.state.board.on_ack(ack);
        if outcome.cum_advanced {
            self.state.rtt.reset_backoff();
        }
        shared.record(
            now,
            self.state.flow,
            FlowEvent::AckReceived {
                cum: self.state.board.cum_ack(),
                newly_acked_bytes: outcome.newly_acked_bytes,
            },
        );
        // Restart the retransmission timer only on *cumulative* progress
        // (RFC 6298: "an ACK that acknowledges new data"). Healthy SACK
        // recovery advances the cumulative point every RTT (the first hole
        // is retransmitted immediately and its ACK moves SND.UNA), so with
        // the 1 s minimum RTO this never fires spuriously. Restarting on
        // mere SACK progress instead creates a livelock under heavy loss:
        // holes whose retransmissions were lost can only be repaired by the
        // RTO, but the RTO keeps getting pushed out by SACKs while the
        // window keeps blasting new data — a sustained line-rate storm.
        let made_progress = outcome.cum_advanced;
        if self.state.board.complete() {
            self.finish(shared, ctx);
            return;
        }
        if !outcome.newly_lost.is_empty() {
            let lost = &outcome.newly_lost;
            self.with_ops(shared, ctx, |s, ops| s.on_loss_detected(ops, lost));
            if self.state.board.complete() {
                self.finish(shared, ctx);
                return;
            }
        }
        self.with_ops(shared, ctx, |s, ops| s.on_ack(ops, ack, &outcome));
        if self.state.board.complete() {
            self.finish(shared, ctx);
            return;
        }
        if made_progress {
            self.rearm_rto_after_progress(shared, ctx);
        }
    }

    /// Handle a probe ACK (PCP).
    pub fn handle_probe_ack(
        &mut self,
        shared: &mut HostCore,
        ctx: &mut Ctx<'_, Header>,
        pa: &ProbeAckHeader,
    ) {
        if self.state.phase != Phase::Established {
            return;
        }
        self.with_ops(shared, ctx, |s, ops| s.on_probe_ack(ops, pa));
    }

    /// Route a fired timer.
    pub fn handle_timer(
        &mut self,
        shared: &mut HostCore,
        ctx: &mut Ctx<'_, Header>,
        kind: TimerKind,
    ) {
        match kind {
            TimerKind::Rto => self.handle_rto(shared, ctx),
            TimerKind::Pace => self.handle_pace(shared, ctx),
            TimerKind::Pto => {
                self.state.pto_timer = None;
                if self.state.phase == Phase::Established {
                    self.with_ops(shared, ctx, |s, ops| s.on_pto(ops));
                    self.finish_if_complete(shared, ctx);
                }
            }
            TimerKind::User(token) => {
                if self.state.phase == Phase::Established {
                    self.with_ops(shared, ctx, |s, ops| s.on_user_timer(ops, token));
                    self.finish_if_complete(shared, ctx);
                }
            }
        }
    }

    fn handle_rto(&mut self, shared: &mut HostCore, ctx: &mut Ctx<'_, Header>) {
        self.state.rto_timer = None;
        match self.state.phase {
            Phase::SynSent => {
                // Handshake timeout: back off and resend the SYN, up to the
                // retry cap — a SYN blackhole must not retry forever. This
                // path runs inside dispatch, so reconstruct core access via
                // ctx. `backoff_level` counts retries: it only resets when
                // the SYN-ACK arrives.
                if self.state.rtt.backoff_level() >= MAX_SYN_RETRIES {
                    self.abort(shared, ctx, AbortReason::SynTimeout);
                    return;
                }
                self.state.rtt.backoff();
                let st = &mut self.state;
                st.syn_sent_at = ctx.now();
                st.counters.syn_sent += 1;
                st.counters.wire_bytes_sent += CTRL_WIRE_BYTES as u64;
                shared.record(
                    ctx.now(),
                    st.flow,
                    FlowEvent::SynSent {
                        attempt: st.counters.syn_sent as u32,
                    },
                );
                let pkt = Packet::new(
                    st.flow,
                    st.local,
                    st.peer,
                    CTRL_WIRE_BYTES,
                    Header::Syn {
                        flow_bytes: st.total_bytes,
                    },
                );
                ctx.send(st.egress, pkt);
                let token = shared.alloc_token(st.flow, TimerKind::Rto);
                let id = ctx.set_timer(st.rtt.rto(), token);
                st.rto_timer = Some((id, token));
            }
            Phase::Established => {
                // Give up after MAX_RTO_RETRIES consecutive timeouts with no
                // cumulative progress (`backoff_level` resets on every new
                // cumulative ACK, so it counts exactly those).
                if self.state.rtt.backoff_level() >= MAX_RTO_RETRIES {
                    self.abort(shared, ctx, AbortReason::MaxRetransmits);
                    return;
                }
                self.state.counters.rto_events += 1;
                shared.record(
                    ctx.now(),
                    self.state.flow,
                    FlowEvent::RtoFired {
                        backoff_level: self.state.rtt.backoff_level(),
                    },
                );
                self.state.rtt.backoff();
                self.state.board.on_rto();
                self.with_ops(shared, ctx, |s, ops| s.on_rto(ops));
                if self.finish_if_complete(shared, ctx) {
                    return;
                }
                // Re-arm with the backed-off RTO — replacing the timer the
                // strategy's retransmission just armed (send_segment arms
                // one when the slot is empty). Overwriting the slot without
                // cancelling would leak a live timer per timeout, and since
                // each leaked fire repeats the cycle, the timer population
                // doubles per RTO: an exponential explosion under loss.
                if let Some((id, token)) = self.state.rto_timer.take() {
                    ctx.cancel_timer(id);
                    shared.drop_token(token);
                }
                let after = self.state.rtt.rto();
                let token = shared.alloc_token(self.state.flow, TimerKind::Rto);
                let id = ctx.set_timer(after, token);
                self.state.rto_timer = Some((id, token));
            }
            Phase::Done | Phase::Aborted => {}
        }
    }

    fn handle_pace(&mut self, shared: &mut HostCore, ctx: &mut Ctx<'_, Header>) {
        self.state.pace_timer = None;
        if self.state.phase != Phase::Established {
            return;
        }
        let action = self.with_ops(shared, ctx, |s, ops| s.on_pace_tick(ops));
        if self.finish_if_complete(shared, ctx) {
            return;
        }
        if action == PaceAction::Continue {
            // Replace (never overwrite) any pacing timer the strategy armed
            // during the tick via start_pacing.
            if let Some((id, token)) = self.state.pace_timer.take() {
                ctx.cancel_timer(id);
                shared.drop_token(token);
            }
            let interval = self.state.pace_interval;
            let token = shared.alloc_token(self.state.flow, TimerKind::Pace);
            let id = ctx.set_timer(interval, token);
            self.state.pace_timer = Some((id, token));
        }
    }

    fn rearm_rto_after_progress(&mut self, shared: &mut HostCore, ctx: &mut Ctx<'_, Header>) {
        if let Some((id, token)) = self.state.rto_timer.take() {
            ctx.cancel_timer(id);
            shared.drop_token(token);
        }
        // Only arm while unacknowledged data exists; a sender that has sent
        // nothing yet (e.g. PCP while probing) must not time out — its own
        // probe timers drive it.
        if self.state.board.high_sent() <= self.state.board.cum_ack() {
            return;
        }
        let after = self.state.rtt.rto();
        let token = shared.alloc_token(self.state.flow, TimerKind::Rto);
        let id = ctx.set_timer(after, token);
        self.state.rto_timer = Some((id, token));
    }

    fn finish_if_complete(&mut self, shared: &mut HostCore, ctx: &mut Ctx<'_, Header>) -> bool {
        if self.state.phase == Phase::Established && self.state.board.complete() {
            self.finish(shared, ctx);
            true
        } else {
            false
        }
    }

    fn finish(&mut self, shared: &mut HostCore, ctx: &mut Ctx<'_, Header>) {
        self.with_ops(shared, ctx, |s, ops| s.on_complete(ops));
        self.state.phase = Phase::Done;
        self.teardown(shared, ctx, FlowOutcome::Completed);
    }

    /// Terminal give-up: cancel everything and report the flow as aborted.
    /// The strategy's `on_complete` is *not* invoked — the flow did not
    /// complete, and strategies must not send on an aborted connection.
    fn abort(&mut self, shared: &mut HostCore, ctx: &mut Ctx<'_, Header>, reason: AbortReason) {
        self.state.phase = Phase::Aborted;
        self.teardown(shared, ctx, FlowOutcome::Aborted(reason));
    }

    /// Cancel every timer this flow owns and emit its [`FlowRecord`].
    fn teardown(&mut self, shared: &mut HostCore, ctx: &mut Ctx<'_, Header>, outcome: FlowOutcome) {
        let now = ctx.now();
        if let Some((id, token)) = self.state.rto_timer.take() {
            ctx.cancel_timer(id);
            shared.drop_token(token);
        }
        if let Some((id, token)) = self.state.pace_timer.take() {
            ctx.cancel_timer(id);
            shared.drop_token(token);
        }
        if let Some((id, token)) = self.state.pto_timer.take() {
            ctx.cancel_timer(id);
            shared.drop_token(token);
        }
        for (id, token) in self.state.user_timers.drain(..) {
            ctx.cancel_timer(id);
            shared.drop_token(token);
        }
        let fct = now.saturating_since(self.state.start_time);
        shared.record(
            now,
            self.state.flow,
            match outcome {
                FlowOutcome::Completed => FlowEvent::Completed {
                    fct_ns: fct.as_nanos(),
                },
                FlowOutcome::Aborted(reason) => FlowEvent::Aborted {
                    reason: reason.as_str(),
                },
            },
        );
        let record = FlowRecord {
            flow: self.state.flow,
            protocol: self.state.proto_name,
            bytes: self.state.total_bytes,
            start: self.state.start_time,
            established_at: self.state.established_at.unwrap_or(self.state.start_time),
            done_at: now,
            fct,
            counters: self.state.counters,
            min_rtt: self.state.rtt.min_rtt(),
            outcome,
        };
        shared.flow_done(record);
    }
}
