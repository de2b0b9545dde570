//! Engine snapshot round-trip tests.
//!
//! The contract under test: saving mid-run, rebuilding the topology from
//! scratch, restoring, and running on must be *observationally identical*
//! to never having stopped — same delivery times, same stats, same event
//! count, and a re-save at the same instant must be byte-identical to the
//! original snapshot.

use netsim::engine::{Ctx, Simulator};
use netsim::link::LinkSpec;
use netsim::loss::LossModel;
use netsim::node::{Node, TimerId};
use netsim::queue::{CoDel, DropTail};
use netsim::snap::{SnapError, SnapReader, SnapWriter};
use netsim::time::{Rate, SimDuration, SimTime};
use netsim::{FlowId, LinkId, NodeId, Packet};
use std::any::Any;

/// Chatty source: every tick it sends a random burst of randomly sized
/// packets and re-arms its timer at a random interval, so the engine RNG,
/// the timer table, the link queue, and in-flight packets are all hot at
/// any save point.
struct Chatter {
    out: LinkId,
    peer: NodeId,
    sent: u64,
    timer: Option<(TimerId, u64)>,
}

impl Node<u64> for Chatter {
    fn on_packet(&mut self, _pkt: Packet<u64>, _ctx: &mut Ctx<'_, u64>) {}
    fn on_timer(&mut self, _id: TimerId, _token: u64, ctx: &mut Ctx<'_, u64>) {
        let burst = 1 + ctx.rng().index(4);
        for _ in 0..burst {
            let size = 200 + ctx.rng().index(1301) as u32;
            self.sent += 1;
            let src = ctx.node_id();
            ctx.send(
                self.out,
                Packet::new(FlowId(1), src, self.peer, size, self.sent),
            );
        }
        let gap = SimDuration::from_micros(100 + ctx.rng().index(900) as u64);
        let tok = self.sent;
        self.timer = Some((ctx.set_timer(gap, tok), tok));
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Sink: records `(time, tag)` for every delivery. With `idle_after` set it
/// also keeps an idle timer that every delivery restarts — the shape of an
/// RTO restarted per ACK — and records when it expires.
#[derive(Default)]
struct Sink {
    got: Vec<(SimTime, u64)>,
    idle_after: Option<SimDuration>,
    idle_timer: Option<TimerId>,
    idle_expired: Vec<SimTime>,
}

impl Node<u64> for Sink {
    fn on_packet(&mut self, pkt: Packet<u64>, ctx: &mut Ctx<'_, u64>) {
        self.got.push((ctx.now(), pkt.payload));
        if let Some(after) = self.idle_after {
            if let Some(id) = self.idle_timer.take() {
                ctx.cancel_timer(id);
            }
            self.idle_timer = Some(ctx.set_timer(after, 0));
        }
    }
    fn on_timer(&mut self, _id: TimerId, _token: u64, ctx: &mut Ctx<'_, u64>) {
        self.idle_timer = None;
        self.idle_expired.push(ctx.now());
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Build the standard test rig: chatter -> bursty-loss bottleneck -> sink.
/// `kick` arms the chatter's first timer; a rig being restored from a
/// snapshot must stay inert (the armed timer comes back with the snapshot).
fn build(seed: u64, kick: bool) -> (Simulator<u64>, NodeId, NodeId, LinkId) {
    let mut sim: Simulator<u64> = Simulator::new(seed);
    let a = sim.add_node(Box::new(Chatter {
        out: LinkId(0),
        peer: NodeId(1),
        sent: 0,
        timer: None,
    }));
    let b = sim.add_node(Box::new(Sink::default()));
    let l = sim.add_link(LinkSpec {
        src: a,
        dst: b,
        rate: Rate::from_mbps(2),
        delay: SimDuration::from_millis(5),
        queue: Box::new(DropTail::new(6000)),
        loss: LossModel::wifi_bursty(),
    });
    // The chatter captured LinkId(0)/NodeId(1) above; assert the guess held.
    assert_eq!(l, LinkId(0));
    assert_eq!(b, NodeId(1));
    if kick {
        sim.core().set_timer(a, SimDuration::ZERO, 0);
    }
    (sim, a, b, l)
}

fn ms(x: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(x)
}

/// Everything observable we compare between runs.
#[derive(Debug, PartialEq)]
struct Observed {
    now: SimTime,
    events_processed: u64,
    deliveries: Vec<(SimTime, u64)>,
    sent: u64,
    tx_packets: u64,
    wire_lost: u64,
    delivered: u64,
    q_enqueued: u64,
    q_dropped: u64,
}

fn observe(sim: &Simulator<u64>, a: NodeId, b: NodeId, l: LinkId) -> Observed {
    let ls = sim.link_stats(l);
    let qs = sim.queue_stats(l);
    Observed {
        now: sim.now(),
        events_processed: sim.events_processed(),
        deliveries: sim.node_as::<Sink>(b).unwrap().got.clone(),
        sent: sim.node_as::<Chatter>(a).unwrap().sent,
        tx_packets: ls.tx_packets,
        wire_lost: ls.wire_lost,
        delivered: ls.delivered,
        q_enqueued: qs.enqueued,
        q_dropped: qs.dropped,
    }
}

#[test]
fn restore_resumes_bit_identically() {
    // Uninterrupted reference run to 200ms.
    let (mut reference, ra, rb, rl) = build(42, true);
    reference.run_until(ms(200));
    let want = observe(&reference, ra, rb, rl);

    // Interrupted run: stop at 60ms, snapshot, throw the simulator away.
    let (mut first, fa, fb, _fl) = build(42, true);
    first.run_until(ms(60));
    let mut w = SnapWriter::new();
    first.save_snapshot(&mut w).unwrap();
    // Node dynamic state rides alongside the engine snapshot (hosts have
    // their own codecs; the test carries it by hand).
    let chat_sent = first.node_as::<Chatter>(fa).unwrap().sent;
    let chat_timer = first.node_as::<Chatter>(fa).unwrap().timer;
    let sink_got = first.node_as::<Sink>(fb).unwrap().got.clone();
    let bytes = w.into_bytes();
    drop(first);

    // Fresh topology, restore, resume to 200ms.
    let (mut resumed, a2, b2, l2) = build(42, false);
    let mut r = SnapReader::new(&bytes);
    resumed.restore_snapshot(&mut r).unwrap();
    assert_eq!(r.remaining(), 0, "snapshot has trailing bytes");
    {
        let c = resumed.node_as_mut::<Chatter>(a2).unwrap();
        c.sent = chat_sent;
        c.timer = chat_timer;
    }
    resumed.node_as_mut::<Sink>(b2).unwrap().got = sink_got;
    assert_eq!(resumed.now(), ms(60));
    resumed.run_until(ms(200));

    let got = observe(&resumed, a2, b2, l2);
    assert_eq!(got, want);
}

#[test]
fn restore_carries_wake_ups_whose_deadline_has_moved() {
    // The sink restarts a 3 ms idle timer on every delivery, so its slot's
    // one queue entry is nearly always earlier than the slot's deadline,
    // and the engine's event list alone no longer says when it fires. At
    // the stop, two more shapes are set up by hand: the idle timer restarted
    // once more (entry earlier than deadline for certain), and a timer
    // cancelled and left alone (a free slot with an entry still queued,
    // which pops 40 ms on with nothing to do). Both must come back.
    const IDLE: SimDuration = SimDuration::from_millis(3);
    let prepare = |kick| {
        let (mut sim, a, b, l) = build(21, kick);
        sim.node_as_mut::<Sink>(b).unwrap().idle_after = Some(IDLE);
        (sim, a, b, l)
    };
    let at_the_stop = |sim: &mut Simulator<u64>, a: NodeId, b: NodeId| {
        let spare = sim.core().set_timer(a, SimDuration::from_millis(40), 77);
        sim.core().cancel_timer(spare);
        let old = sim.node_as::<Sink>(b).unwrap().idle_timer;
        let old = old.expect("idle timer armed at the stop");
        sim.core().cancel_timer(old);
        let new = sim.core().set_timer(b, IDLE + IDLE, 0);
        sim.node_as_mut::<Sink>(b).unwrap().idle_timer = Some(new);
    };
    let idle = |sim: &Simulator<u64>, b| {
        let s = sim.node_as::<Sink>(b).unwrap();
        (s.idle_timer, s.idle_expired.clone())
    };

    let (mut reference, ra, rb, rl) = prepare(true);
    reference.run_until(ms(60));
    at_the_stop(&mut reference, ra, rb);
    reference.run_until(ms(200));
    let want = (observe(&reference, ra, rb, rl), idle(&reference, rb));
    assert!(
        want.1 .1.len() > 3,
        "the idle timer must expire now and then"
    );
    assert!(want.1 .1.iter().any(|&t| t > ms(60)));

    let (mut first, fa, fb, _) = prepare(true);
    first.run_until(ms(60));
    at_the_stop(&mut first, fa, fb);
    let mut w = SnapWriter::new();
    first.save_snapshot(&mut w).unwrap();
    let bytes = w.into_bytes();
    let chatter = first.node_as::<Chatter>(fa).unwrap();
    let (sent, timer) = (chatter.sent, chatter.timer);
    let sink = std::mem::take(first.node_as_mut::<Sink>(fb).unwrap());
    drop(first);

    let (mut resumed, a2, b2, l2) = prepare(false);
    resumed
        .restore_snapshot(&mut SnapReader::new(&bytes))
        .unwrap();
    let c = resumed.node_as_mut::<Chatter>(a2).unwrap();
    (c.sent, c.timer) = (sent, timer);
    *resumed.node_as_mut::<Sink>(b2).unwrap() = sink;
    resumed.run_until(ms(200));
    assert_eq!(
        (observe(&resumed, a2, b2, l2), idle(&resumed, b2)),
        want,
        "the resumed run diverged from the uninterrupted one"
    );
}

#[test]
fn resave_after_restore_is_byte_identical() {
    let (mut first, _a, _b, _l) = build(7, true);
    first.run_until(ms(45));
    let mut w1 = SnapWriter::new();
    first.save_snapshot(&mut w1).unwrap();
    let bytes1 = w1.into_bytes();

    let (mut resumed, _a2, _b2, _l2) = build(7, false);
    resumed
        .restore_snapshot(&mut SnapReader::new(&bytes1))
        .unwrap();
    let mut w2 = SnapWriter::new();
    resumed.save_snapshot(&mut w2).unwrap();
    assert_eq!(
        bytes1,
        w2.into_bytes(),
        "save -> restore -> save must be a fixed point"
    );
}

#[test]
fn saving_does_not_perturb_the_run() {
    let (mut plain, pa, pb, pl) = build(9, true);
    plain.run_until(ms(150));
    let want = observe(&plain, pa, pb, pl);

    let (mut saved, sa, sb, sl) = build(9, true);
    // Snapshot at several boundaries along the way; the run must not notice.
    for t in [20u64, 40, 60, 80, 100] {
        saved.run_until(ms(t));
        let mut w = SnapWriter::new();
        saved.save_snapshot(&mut w).unwrap();
    }
    saved.run_until(ms(150));
    assert_eq!(observe(&saved, sa, sb, sl), want);
}

#[test]
fn snapshot_refuses_codel_queues() {
    let mut sim: Simulator<u64> = Simulator::new(1);
    let a = sim.add_node(Box::new(Sink::default()));
    let b = sim.add_node(Box::new(Sink::default()));
    sim.add_link(LinkSpec {
        src: a,
        dst: b,
        rate: Rate::from_mbps(10),
        delay: SimDuration::from_millis(1),
        queue: Box::new(CoDel::new(100_000)),
        loss: LossModel::None,
    });
    let mut w = SnapWriter::new();
    match sim.save_snapshot(&mut w) {
        Err(SnapError::Unsupported(msg)) => assert!(msg.contains("drop-tail"), "{msg}"),
        other => panic!("expected Unsupported, got {other:?}"),
    }
}

#[test]
fn restore_refuses_used_simulator() {
    let (mut first, _a, _b, _l) = build(3, true);
    first.run_until(ms(30));
    let mut w = SnapWriter::new();
    first.save_snapshot(&mut w).unwrap();
    let bytes = w.into_bytes();

    // `first` has already run; restoring into it must fail.
    match first.restore_snapshot(&mut SnapReader::new(&bytes)) {
        Err(SnapError::Unsupported(msg)) => assert!(msg.contains("freshly built"), "{msg}"),
        other => panic!("expected Unsupported, got {other:?}"),
    }
}

#[test]
fn restore_refuses_link_count_mismatch() {
    let (mut first, _a, _b, _l) = build(5, true);
    first.run_until(ms(30));
    let mut w = SnapWriter::new();
    first.save_snapshot(&mut w).unwrap();
    let bytes = w.into_bytes();

    // Fresh sim with an extra link: config drift must be detected.
    let (mut fresh, a2, b2, _l2) = build(5, false);
    fresh.add_link(LinkSpec {
        src: b2,
        dst: a2,
        rate: Rate::from_mbps(1),
        delay: SimDuration::from_millis(1),
        queue: Box::new(DropTail::new(10_000)),
        loss: LossModel::None,
    });
    match fresh.restore_snapshot(&mut SnapReader::new(&bytes)) {
        Err(SnapError::Unsupported(msg)) => assert!(msg.contains("config drift"), "{msg}"),
        other => panic!("expected Unsupported, got {other:?}"),
    }
}

#[test]
fn restore_survives_hostile_bytes() {
    // An engine snapshot is not sealed (the file around it is), so the
    // decoders themselves meet damaged input here: every bit flip and
    // truncation must come back as `Ok` or `Err`, never as a panic or an
    // allocation sized by a corrupted length prefix.
    let (mut first, _a, _b, _l) = build(11, true);
    first.run_until(ms(60));
    let mut w = SnapWriter::new();
    first.save_snapshot(&mut w).unwrap();
    let good = w.into_bytes();
    let restore = |bytes: &[u8]| {
        let (mut fresh, _a, _b, _l) = build(11, false);
        fresh.restore_snapshot(&mut SnapReader::new(bytes))
    };
    assert!(restore(&good).is_ok());
    for cut in 0..good.len() {
        let err = restore(&good[..cut]).unwrap_err();
        assert!(matches!(err, SnapError::Eof { .. }), "cut {cut}: {err}");
    }
    for bit in 0..good.len() * 8 {
        let mut bad = good.clone();
        bad[bit / 8] ^= 1 << (bit % 8);
        let _ = restore(&bad);
    }
}
