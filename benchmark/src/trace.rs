//! The benchmark's tracer: a per-thread span recorder, and the two timing
//! shims that put spans around the layers the rigs cannot reach otherwise.
//!
//! The program under test has no tracer of its own, so every span here is
//! taken from outside, around a call into a layer:
//!
//! * **Coarse** spans (rig, build, window, drain, reap, finish) happen a few
//!   hundred times a run. Each is recorded one by one — name, start, end and
//!   the coarse span that encloses it — and written to `spans.jsonl`.
//! * **Fine** spans (next arrival, `run_until`, `start_flow`, and the build and
//!   collection of one tiny simulator) happen once per flow. Every call is
//!   timed, but only the per-(name, parent) totals are kept.
//! * **Sampled** spans are the shims: [`TimedNode`] around a host's
//!   `on_packet`/`on_timer` and [`TimedStrategy`] around every strategy hook
//!   run once per simulated event, where two clock reads would cost as much
//!   as the work. Every call is counted; one host call in
//!   [`SAMPLE_EVERY`] is timed, together with the strategy hooks inside it,
//!   so a sampled host span and its children are always measured on the same
//!   call. Totals are the sampled mean times the exact count.
//!
//! Self time is a span's duration minus what its timed children cover. A
//! sampled span does not subtract from an unsampled parent (it covers one
//! call in 61 of them); the rigs subtract the *estimated* total instead.

use netsim::node::{Node, TimerId};
use netsim::snap::{SnapError, SnapReader, SnapWriter};
use netsim::{Ctx, Packet};
use std::any::Any;
use std::cell::RefCell;
use std::sync::OnceLock;
use std::time::Instant;
use transport::scoreboard::AckOutcome;
use transport::sender::Ops;
use transport::strategy::{PaceAction, Strategy};
use transport::wire::{AckHeader, ProbeAckHeader, SegId};
use transport::Header;

/// One host call in this many is timed. Prime, so it cannot lock onto a
/// period of the simulation (ACK-per-packet, pacing ticks).
pub const SAMPLE_EVERY: u32 = 61;

/// How a span is recorded (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Timed and recorded individually.
    Coarse,
    /// Timed on every call, kept as totals.
    Fine,
    /// Counted on every call, timed on one call in [`SAMPLE_EVERY`].
    Sampled,
}

/// Every span the benchmark records. The strategy hooks mirror
/// `transport::strategy::Strategy` one for one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
#[allow(missing_docs)] // the names are the documentation: see `name()`
pub enum Span {
    Root,
    Rig,
    Build,
    Window,
    Drain,
    Reap,
    Finish,
    Arrival,
    SimBuild,
    RunUntil,
    StartFlow,
    Collect,
    HostOnPacket,
    HostOnTimer,
    OnEstablished,
    OnAck,
    OnLossDetected,
    OnRto,
    OnPaceTick,
    OnPto,
    OnUserTimer,
    OnProbeAck,
    OnComplete,
}

const N_SPANS: usize = Span::OnComplete as usize + 1;

impl Span {
    /// Every span, in declaration order.
    pub const ALL: [Span; N_SPANS] = [
        Span::Root,
        Span::Rig,
        Span::Build,
        Span::Window,
        Span::Drain,
        Span::Reap,
        Span::Finish,
        Span::Arrival,
        Span::SimBuild,
        Span::RunUntil,
        Span::StartFlow,
        Span::Collect,
        Span::HostOnPacket,
        Span::HostOnTimer,
        Span::OnEstablished,
        Span::OnAck,
        Span::OnLossDetected,
        Span::OnRto,
        Span::OnPaceTick,
        Span::OnPto,
        Span::OnUserTimer,
        Span::OnProbeAck,
        Span::OnComplete,
    ];

    /// The name written to `spans.jsonl`: the layer, then the call.
    pub fn name(self) -> &'static str {
        match self {
            Span::Root => "root",
            Span::Rig => "rig",
            Span::Build => "rig.build",
            Span::Window => "rig.window",
            Span::Drain => "rig.drain",
            Span::Reap => "transport.host.reap_receivers",
            Span::Finish => "rig.finish",
            Span::Arrival => "workload.arrivals.next",
            Span::SimBuild => "netsim.topology.build_sim",
            Span::RunUntil => "netsim.engine.run_until",
            Span::StartFlow => "transport.host.start_flow",
            Span::Collect => "rig.collect",
            Span::HostOnPacket => "transport.host.on_packet",
            Span::HostOnTimer => "transport.host.on_timer",
            Span::OnEstablished => "transport.strategy.on_established",
            Span::OnAck => "transport.strategy.on_ack",
            Span::OnLossDetected => "transport.strategy.on_loss_detected",
            Span::OnRto => "transport.strategy.on_rto",
            Span::OnPaceTick => "transport.strategy.on_pace_tick",
            Span::OnPto => "transport.strategy.on_pto",
            Span::OnUserTimer => "transport.strategy.on_user_timer",
            Span::OnProbeAck => "transport.strategy.on_probe_ack",
            Span::OnComplete => "transport.strategy.on_complete",
        }
    }

    /// How this span is recorded.
    pub fn mode(self) -> Mode {
        match self {
            Span::Root
            | Span::Rig
            | Span::Build
            | Span::Window
            | Span::Drain
            | Span::Reap
            | Span::Finish => Mode::Coarse,
            Span::Arrival | Span::SimBuild | Span::RunUntil | Span::StartFlow | Span::Collect => {
                Mode::Fine
            }
            _ => Mode::Sampled,
        }
    }

    /// True for the two host-dispatch spans [`TimedNode`] records.
    pub fn is_host_dispatch(self) -> bool {
        matches!(self, Span::HostOnPacket | Span::HostOnTimer)
    }

    /// True for the strategy hooks [`TimedStrategy`] records.
    pub fn is_strategy_hook(self) -> bool {
        self as u8 >= Span::OnEstablished as u8
    }
}

/// One individually recorded (coarse) span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Identifier, unique within one thread's trace.
    pub id: u32,
    /// The enclosing coarse span, if any.
    pub parent: Option<u32>,
    /// Which span.
    pub span: Span,
    /// Nanoseconds since the process first started tracing.
    pub start_ns: u64,
    /// Nanoseconds since the process first started tracing.
    pub end_ns: u64,
}

/// Totals of one (span, parent) pairing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AggRow {
    /// Which span.
    pub span: Span,
    /// The span that was open when it was entered.
    pub parent: Span,
    /// Calls, exact.
    pub calls: u64,
    /// Calls that were timed (all of them unless the span is sampled).
    pub timed: u64,
    /// Nanoseconds inside the timed calls.
    pub total_ns: u64,
    /// Of those, nanoseconds inside timed child spans.
    pub child_ns: u64,
}

impl AggRow {
    fn scale(&self, ns: u64) -> u64 {
        if self.timed == 0 {
            return 0;
        }
        (ns as u128 * self.calls as u128 / self.timed as u128) as u64
    }

    /// Time inside all calls: exact when every call was timed, otherwise
    /// the sampled mean times the call count.
    pub fn est_total_ns(&self) -> u64 {
        self.scale(self.total_ns)
    }

    /// Time inside all calls and outside their timed children.
    pub fn est_self_ns(&self) -> u64 {
        self.scale(self.total_ns - self.child_ns)
    }
}

/// What one thread recorded between [`start`] and [`stop`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceData {
    /// Coarse spans in completion order.
    pub spans: Vec<SpanRecord>,
    /// Non-empty (span, parent) totals.
    pub agg: Vec<AggRow>,
}

impl TraceData {
    /// Fold another thread's trace into this one: totals add up, coarse
    /// spans are kept with fresh identifiers.
    pub fn merge(&mut self, other: TraceData) {
        let shift = self.spans.iter().map(|s| s.id + 1).max().unwrap_or(0);
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.id += shift;
            s.parent = s.parent.map(|p| p + shift);
            s
        }));
        for row in other.agg {
            match self
                .agg
                .iter_mut()
                .find(|r| (r.span, r.parent) == (row.span, row.parent))
            {
                Some(r) => {
                    r.calls += row.calls;
                    r.timed += row.timed;
                    r.total_ns += row.total_ns;
                    r.child_ns += row.child_ns;
                }
                None => self.agg.push(row),
            }
        }
    }

    fn sum(&self, pick: impl Fn(Span) -> bool, f: impl Fn(&AggRow) -> u64) -> u64 {
        self.agg.iter().filter(|r| pick(r.span)).map(f).sum()
    }

    /// Exact call count of the spans `pick` selects.
    pub fn calls(&self, pick: impl Fn(Span) -> bool) -> u64 {
        self.sum(pick, |r| r.calls)
    }

    /// Estimated total time of the spans `pick` selects.
    pub fn total_ns(&self, pick: impl Fn(Span) -> bool) -> u64 {
        self.sum(pick, AggRow::est_total_ns)
    }

    /// Estimated self time of the spans `pick` selects.
    pub fn self_ns(&self, pick: impl Fn(Span) -> bool) -> u64 {
        self.sum(pick, AggRow::est_self_ns)
    }
}

#[derive(Clone, Copy, Default)]
struct Agg {
    calls: u64,
    timed: u64,
    total_ns: u64,
    child_ns: u64,
}

struct Frame {
    span: Span,
    parent: Span,
    start: Instant,
    child_ns: u64,
    /// Set for coarse spans: (own id, enclosing coarse id).
    coarse: Option<(u32, Option<u32>)>,
}

struct Tracer {
    enabled: bool,
    /// Every open span, timed or not, innermost last.
    open: Vec<Span>,
    /// The timed ones among them.
    frames: Vec<Frame>,
    /// Open sampled spans that are *not* being timed.
    untimed_sampled: u32,
    tick: u32,
    next_id: u32,
    spans: Vec<SpanRecord>,
    agg: Vec<Agg>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            enabled: false,
            open: Vec::new(),
            frames: Vec::new(),
            untimed_sampled: 0,
            tick: 0,
            next_id: 0,
            spans: Vec::new(),
            agg: vec![Agg::default(); N_SPANS * N_SPANS],
        }
    }

    fn enter(&mut self, span: Span) -> Token {
        if !self.enabled {
            return Token::Off;
        }
        let parent = self.open.last().copied().unwrap_or(Span::Root);
        self.open.push(span);
        self.agg[parent as usize * N_SPANS + span as usize].calls += 1;
        let mode = span.mode();
        let timed = match mode {
            Mode::Coarse | Mode::Fine => true,
            Mode::Sampled if self.untimed_sampled > 0 => false,
            // Inside a timed sampled span: measured on the same call.
            Mode::Sampled
                if self
                    .frames
                    .last()
                    .is_some_and(|f| f.span.mode() == Mode::Sampled) =>
            {
                true
            }
            Mode::Sampled => {
                self.tick += 1;
                self.tick.is_multiple_of(SAMPLE_EVERY)
            }
        };
        if !timed {
            self.untimed_sampled += 1;
            return Token::Counted;
        }
        let coarse = (mode == Mode::Coarse).then(|| {
            let id = self.next_id;
            self.next_id += 1;
            let enclosing = self.frames.iter().rev().find_map(|f| f.coarse).map(|c| c.0);
            (id, enclosing)
        });
        self.frames.push(Frame {
            span,
            parent,
            start: Instant::now(),
            child_ns: 0,
            coarse,
        });
        Token::Timed
    }

    fn exit(&mut self, token: Token) {
        match token {
            Token::Off => {}
            Token::Counted => {
                self.open.pop();
                self.untimed_sampled -= 1;
            }
            Token::Timed => {
                let end = Instant::now();
                self.open.pop();
                let f = self.frames.pop().expect("a timed span is open");
                let ns = end.duration_since(f.start).as_nanos() as u64;
                let a = &mut self.agg[f.parent as usize * N_SPANS + f.span as usize];
                a.timed += 1;
                a.total_ns += ns;
                a.child_ns += f.child_ns;
                if let Some(p) = self.frames.last_mut() {
                    let sampled = f.span.mode() == Mode::Sampled;
                    if !sampled || p.span.mode() == Mode::Sampled {
                        p.child_ns += ns;
                    }
                }
                if let Some((id, parent)) = f.coarse {
                    self.spans.push(SpanRecord {
                        id,
                        parent,
                        span: f.span,
                        start_ns: f.start.duration_since(epoch()).as_nanos() as u64,
                        end_ns: end.duration_since(epoch()).as_nanos() as u64,
                    });
                }
            }
        }
    }
}

/// Span times count from the first `start` of the process, on every thread,
/// so the spans of a sharded rig's workers share one time line.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer::new());
}

/// What [`enter`] hands back for [`exit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "pass the token to trace::exit"]
pub enum Token {
    /// Tracing is off on this thread.
    Off,
    /// The call was counted but not timed.
    Counted,
    /// The call is being timed.
    Timed,
}

/// Start recording on this thread, discarding anything recorded before.
pub fn start() {
    epoch();
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        *t = Tracer::new();
        t.enabled = true;
    });
}

/// True while this thread is recording.
pub fn is_on() -> bool {
    TRACER.with(|t| t.borrow().enabled)
}

/// Stop recording on this thread and hand over what was recorded.
pub fn stop() -> TraceData {
    TRACER.with(|t| {
        let t = std::mem::replace(&mut *t.borrow_mut(), Tracer::new());
        assert!(t.open.is_empty(), "trace stopped with spans open");
        let agg = t
            .agg
            .iter()
            .enumerate()
            .filter(|(_, a)| a.calls > 0)
            .map(|(i, a)| AggRow {
                span: Span::ALL[i % N_SPANS],
                parent: Span::ALL[i / N_SPANS],
                calls: a.calls,
                timed: a.timed,
                total_ns: a.total_ns,
                child_ns: a.child_ns,
            })
            .collect();
        TraceData {
            spans: t.spans,
            agg,
        }
    })
}

/// Open a span on this thread. A no-op returning [`Token::Off`] unless
/// [`start`] was called.
#[inline]
pub fn enter(span: Span) -> Token {
    TRACER.with(|t| t.borrow_mut().enter(span))
}

/// Close the span `token` came from.
#[inline]
pub fn exit(token: Token) {
    if token != Token::Off {
        TRACER.with(|t| t.borrow_mut().exit(token));
    }
}

/// Run `f` inside `span`.
#[inline]
pub fn within<R>(span: Span, f: impl FnOnce() -> R) -> R {
    let token = enter(span);
    let r = f();
    exit(token);
    r
}

/// Timing shim around a host node. Packets and timers pass through
/// unchanged; `as_any` answers for the wrapped node, so the harness idiom
/// `sim.node_as::<Host>(id)` keeps working on a shimmed topology.
pub struct TimedNode {
    inner: Box<dyn Node<Header>>,
}

impl TimedNode {
    /// Wrap `inner`.
    pub fn wrap(inner: Box<dyn Node<Header>>) -> Box<dyn Node<Header>> {
        Box::new(TimedNode { inner })
    }
}

impl Node<Header> for TimedNode {
    fn on_packet(&mut self, pkt: Packet<Header>, ctx: &mut Ctx<'_, Header>) {
        let token = enter(Span::HostOnPacket);
        self.inner.on_packet(pkt, ctx);
        exit(token);
    }

    fn on_timer(&mut self, id: TimerId, timer_token: u64, ctx: &mut Ctx<'_, Header>) {
        let token = enter(Span::HostOnTimer);
        self.inner.on_timer(id, timer_token, ctx);
        exit(token);
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}

/// Timing shim around a sender strategy. Every hook of the trait is
/// forwarded — including the ones with default bodies, which a wrapper that
/// left them out would silently replace with the defaults.
pub struct TimedStrategy {
    inner: Box<dyn Strategy>,
}

impl TimedStrategy {
    /// Wrap `inner`.
    pub fn wrap(inner: Box<dyn Strategy>) -> Box<dyn Strategy> {
        Box::new(TimedStrategy { inner })
    }
}

impl Strategy for TimedStrategy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_established(&mut self, ops: &mut Ops<'_, '_>) {
        within(Span::OnEstablished, || self.inner.on_established(ops))
    }

    fn on_ack(&mut self, ops: &mut Ops<'_, '_>, ack: &AckHeader, outcome: &AckOutcome) {
        within(Span::OnAck, || self.inner.on_ack(ops, ack, outcome))
    }

    fn on_loss_detected(&mut self, ops: &mut Ops<'_, '_>, newly_lost: &[SegId]) {
        within(Span::OnLossDetected, || {
            self.inner.on_loss_detected(ops, newly_lost)
        })
    }

    fn on_rto(&mut self, ops: &mut Ops<'_, '_>) {
        within(Span::OnRto, || self.inner.on_rto(ops))
    }

    fn on_pace_tick(&mut self, ops: &mut Ops<'_, '_>) -> PaceAction {
        within(Span::OnPaceTick, || self.inner.on_pace_tick(ops))
    }

    fn on_pto(&mut self, ops: &mut Ops<'_, '_>) {
        within(Span::OnPto, || self.inner.on_pto(ops))
    }

    fn on_user_timer(&mut self, ops: &mut Ops<'_, '_>, token: u64) {
        within(Span::OnUserTimer, || self.inner.on_user_timer(ops, token))
    }

    fn on_probe_ack(&mut self, ops: &mut Ops<'_, '_>, pa: &ProbeAckHeader) {
        within(Span::OnProbeAck, || self.inner.on_probe_ack(ops, pa))
    }

    fn on_complete(&mut self, ops: &mut Ops<'_, '_>) {
        within(Span::OnComplete, || self.inner.on_complete(ops))
    }

    fn naive_loss_remarking(&self) -> bool {
        self.inner.naive_loss_remarking()
    }

    fn save_state(&self, w: &mut SnapWriter) {
        self.inner.save_state(w)
    }

    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.inner.load_state(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(data: &TraceData, span: Span, parent: Span) -> AggRow {
        *data
            .agg
            .iter()
            .find(|r| (r.span, r.parent) == (span, parent))
            .unwrap_or_else(|| panic!("no row {span:?} under {parent:?}"))
    }

    #[test]
    fn off_by_default_and_after_stop() {
        assert_eq!(enter(Span::Build), Token::Off);
        start();
        let _ = stop();
        assert_eq!(enter(Span::Build), Token::Off);
    }

    #[test]
    fn coarse_spans_nest_and_self_time_excludes_children() {
        start();
        let rig = enter(Span::Rig);
        let build = enter(Span::Build);
        std::thread::sleep(std::time::Duration::from_millis(5));
        exit(build);
        for _ in 0..3 {
            within(Span::RunUntil, || {
                std::thread::sleep(std::time::Duration::from_millis(1))
            });
        }
        exit(rig);
        let data = stop();

        assert_eq!(data.spans.len(), 2, "fine spans are not kept one by one");
        let (b, r) = (&data.spans[0], &data.spans[1]);
        assert_eq!((b.span, r.span), (Span::Build, Span::Rig));
        assert_eq!(b.parent, Some(r.id));
        assert_eq!(r.parent, None);
        assert!(r.start_ns <= b.start_ns && b.end_ns <= r.end_ns);

        let rig = row(&data, Span::Rig, Span::Root);
        let run = row(&data, Span::RunUntil, Span::Rig);
        assert_eq!((run.calls, run.timed), (3, 3));
        assert!(rig.child_ns >= 8_000_000, "{rig:?}");
        assert!(rig.est_self_ns() < rig.total_ns - 8_000_000 + 1);
        assert_eq!(
            rig.child_ns,
            run.total_ns + row(&data, Span::Build, Span::Rig).total_ns
        );
    }

    #[test]
    fn sampled_spans_count_every_call_and_time_one_in_61_with_children() {
        start();
        let run = enter(Span::RunUntil);
        for _ in 0..(SAMPLE_EVERY * 10) {
            let host = enter(Span::HostOnPacket);
            within(Span::OnAck, || std::hint::black_box(0));
            within(Span::OnComplete, || std::hint::black_box(0));
            exit(host);
        }
        exit(run);
        let data = stop();

        let host = row(&data, Span::HostOnPacket, Span::RunUntil);
        assert_eq!((host.calls, host.timed), (610, 10));
        let ack = row(&data, Span::OnAck, Span::HostOnPacket);
        assert_eq!((ack.calls, ack.timed), (610, 10), "timed with the parent");
        let done = row(&data, Span::OnComplete, Span::HostOnPacket);
        assert_eq!(host.child_ns, ack.total_ns + done.total_ns);
        // A sampled child covers one call in 61: it must not be subtracted
        // from the unsampled parent as if it covered them all.
        assert_eq!(row(&data, Span::RunUntil, Span::Root).child_ns, 0);
        assert_eq!(data.calls(Span::is_strategy_hook), 1220);
        assert_eq!(
            data.total_ns(Span::is_host_dispatch),
            host.total_ns * 61,
            "estimate = sampled total x calls / timed"
        );
    }

    #[test]
    fn merge_adds_totals_and_keeps_span_ids_apart() {
        let one = || {
            start();
            within(Span::Build, || ());
            within(Span::Build, || ());
            stop()
        };
        let mut a = one();
        a.merge(one());
        assert_eq!(row(&a, Span::Build, Span::Root).calls, 4);
        let mut ids: Vec<u32> = a.spans.iter().map(|s| s.id).collect();
        ids.dedup();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }
}
