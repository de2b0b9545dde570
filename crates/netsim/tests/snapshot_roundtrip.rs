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
use netsim::queue::{CoDel, DropTail, QueueDiscipline};
use netsim::rng::SimRng;
use netsim::snap::{SnapError, SnapReader, SnapWriter};
use netsim::time::{Rate, SimDuration, SimTime};
use netsim::{FaultSpec, FlowId, LinkId, NodeId, Packet};
use std::any::Any;

/// Chatty source: every tick it sends a random burst of randomly sized
/// packets and re-arms its timer at a random interval, so the timer table,
/// the link queue, and in-flight packets are all hot at any save point. It
/// draws from a stream of its own: the engine's belongs to wire loss.
struct Chatter {
    out: LinkId,
    peer: NodeId,
    sent: u64,
    timer: Option<(TimerId, u64)>,
    rng: SimRng,
}

impl Node<u64> for Chatter {
    fn on_packet(&mut self, _pkt: Packet<u64>, _ctx: &mut Ctx<'_, u64>) {}
    fn on_timer(&mut self, _id: TimerId, _token: u64, ctx: &mut Ctx<'_, u64>) {
        let burst = 1 + self.rng.index(4);
        for _ in 0..burst {
            let size = 200 + self.rng.index(1301) as u32;
            self.sent += 1;
            let src = ctx.node_id();
            ctx.send(
                self.out,
                Packet::new(FlowId(1), src, self.peer, size, self.sent),
            );
        }
        let gap = SimDuration::from_micros(100 + self.rng.index(900) as u64);
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
    let queue = Box::new(DropTail::new(6000));
    rig(seed, kick, Rate::from_mbps(2), queue, None)
}

/// The rig of [`build`] behind a CoDel queue on a 20 Mbps link, which the
/// chatter (~30 Mbps offered) still overloads: CoDel is dropping long
/// before 150 ms, and its megabyte never overflows. With `faults`, every
/// fault kind is installed, active on both sides of a cut at 150 ms.
fn codel_rig(seed: u64, kick: bool, faults: bool) -> (Simulator<u64>, NodeId, NodeId, LinkId) {
    let faults = faults.then(|| {
        FaultSpec::none()
            .down_window(ms(20), ms(30))
            .down_window(ms(170), ms(175))
            .blackhole_window(ms(140), ms(160))
            .with_reorder(0.2, SimDuration::from_millis(2))
            .with_duplication(0.05)
            .with_corruption(0.05)
            .rate_step(ms(100), Rate::from_mbps(10))
            .rate_step(ms(200), Rate::from_mbps(25))
            .delay_step(ms(80), SimDuration::from_millis(8))
            .delay_step(ms(220), SimDuration::from_millis(3))
    });
    let queue = Box::new(CoDel::new(1_000_000));
    rig(seed, kick, Rate::from_mbps(20), queue, faults)
}

fn rig(
    seed: u64,
    kick: bool,
    rate: Rate,
    queue: Box<dyn QueueDiscipline>,
    faults: Option<FaultSpec>,
) -> (Simulator<u64>, NodeId, NodeId, LinkId) {
    let mut sim: Simulator<u64> = Simulator::new(seed);
    let a = sim.add_node(Box::new(Chatter {
        out: LinkId(0),
        peer: NodeId(1),
        sent: 0,
        timer: None,
        rng: SimRng::new(seed).fork("chatter"),
    }));
    let b = sim.add_node(Box::new(Sink::default()));
    let l = sim.add_link(LinkSpec {
        src: a,
        dst: b,
        rate,
        delay: SimDuration::from_millis(5),
        queue,
        loss: LossModel::wifi_bursty(),
    });
    // The chatter captured LinkId(0)/NodeId(1) above; assert the guess held.
    assert_eq!(l, LinkId(0));
    assert_eq!(b, NodeId(1));
    if let Some(spec) = faults {
        sim.set_link_faults(l, spec);
    }
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
    /// Down-dropped, blackholed, corrupt-marked, corrupt-dropped and
    /// duplicated packets.
    faults: [u64; 5],
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
        faults: [
            ls.down_dropped,
            ls.blackholed,
            ls.corrupt_marked,
            ls.corrupt_dropped,
            ls.duplicated,
        ],
    }
}

#[test]
fn restore_resumes_bit_identically() {
    // Uninterrupted reference run to 200ms.
    let (mut reference, ra, rb, rl) = build(42, true);
    reference.run_until(ms(200));
    let want = observe(&reference, ra, rb, rl);

    // Interrupted run: stop at 60ms, snapshot, throw the simulator away.
    // Node dynamic state rides alongside the engine snapshot (hosts have
    // their own codecs; the test carries it by hand).
    let (mut first, fa, fb, _fl) = build(42, true);
    first.run_until(ms(60));
    let saved = save(&mut first, fa, fb);
    drop(first);

    // Fresh topology, restore, resume to 200ms.
    let (mut resumed, a2, b2, l2) = build(42, false);
    load(&mut resumed, a2, b2, saved);
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
    let saved = save(&mut first, fa, fb);
    drop(first);

    let (mut resumed, a2, b2, l2) = prepare(false);
    load(&mut resumed, a2, b2, saved);
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
    first.save_snapshot(&mut w1);
    let bytes1 = w1.into_bytes();

    let (mut resumed, _a2, _b2, _l2) = build(7, false);
    resumed
        .restore_snapshot(&mut SnapReader::new(&bytes1))
        .unwrap();
    let mut w2 = SnapWriter::new();
    resumed.save_snapshot(&mut w2);
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
        saved.save_snapshot(&mut w);
    }
    saved.run_until(ms(150));
    assert_eq!(observe(&saved, sa, sb, sl), want);
}

/// Save `sim` at its current instant, with the chatter's and the sink's
/// state carried by hand beside the engine's.
struct Saved {
    engine: Vec<u8>,
    sent: u64,
    timer: Option<(TimerId, u64)>,
    rng: SimRng,
    sink: Sink,
}

fn save(sim: &mut Simulator<u64>, a: NodeId, b: NodeId) -> Saved {
    let mut w = SnapWriter::new();
    sim.save_snapshot(&mut w);
    let chatter = sim.node_as::<Chatter>(a).unwrap();
    let (sent, timer, rng) = (chatter.sent, chatter.timer, chatter.rng.clone());
    Saved {
        engine: w.into_bytes(),
        sent,
        timer,
        rng,
        sink: std::mem::take(sim.node_as_mut::<Sink>(b).unwrap()),
    }
}

fn load(sim: &mut Simulator<u64>, a: NodeId, b: NodeId, saved: Saved) {
    let mut r = SnapReader::new(&saved.engine);
    sim.restore_snapshot(&mut r).unwrap();
    assert_eq!(r.remaining(), 0, "snapshot has trailing bytes");
    let c = sim.node_as_mut::<Chatter>(a).unwrap();
    (c.sent, c.timer, c.rng) = (saved.sent, saved.timer, saved.rng);
    *sim.node_as_mut::<Sink>(b).unwrap() = saved.sink;
}

#[test]
fn codel_and_faulted_links_resume_bit_identically() {
    let cut = ms(150);
    let (mut reference, ra, rb, rl) = codel_rig(13, true, true);
    reference.run_until(cut);
    let at_cut = observe(&reference, ra, rb, rl);
    reference.run_until(ms(320));
    let want = observe(&reference, ra, rb, rl);
    // Every fault kind acted before the cut and after it, and CoDel had
    // dropped at dequeue (its megabyte never fills) before the cut.
    assert!(at_cut.q_dropped > 0, "CoDel idle at the cut: {at_cut:?}");
    for (i, (&before, &after)) in at_cut.faults.iter().zip(&want.faults).enumerate() {
        assert!(
            0 < before && before < after,
            "fault counter {i}: {at_cut:?} {want:?}"
        );
    }

    let (mut first, fa, fb, _) = codel_rig(13, true, true);
    first.run_until(cut);
    let saved = save(&mut first, fa, fb);
    let bytes = saved.engine.clone();
    drop(first);
    let (mut resumed, a2, b2, l2) = codel_rig(13, false, true);
    load(&mut resumed, a2, b2, saved);
    let mut again = SnapWriter::new();
    resumed.save_snapshot(&mut again);
    assert!(
        bytes == again.into_bytes(),
        "save -> restore -> save must be a fixed point"
    );
    resumed.run_until(ms(320));
    assert_eq!(observe(&resumed, a2, b2, l2), want);
}

#[test]
fn restore_refuses_fault_injection_drift() {
    for saved_with_faults in [true, false] {
        let (mut first, a, b, _) = codel_rig(17, true, saved_with_faults);
        first.run_until(ms(50));
        let saved = save(&mut first, a, b);
        let (mut fresh, _, _, _) = codel_rig(17, false, !saved_with_faults);
        match fresh.restore_snapshot(&mut SnapReader::new(&saved.engine)) {
            Err(SnapError::Unsupported(msg)) => assert!(msg.contains("config drift"), "{msg}"),
            other => panic!("expected Unsupported, got {other:?}"),
        }
    }
}

#[test]
fn restore_refuses_used_simulator() {
    let (mut first, _a, _b, _l) = build(3, true);
    first.run_until(ms(30));
    let mut w = SnapWriter::new();
    first.save_snapshot(&mut w);
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
    first.save_snapshot(&mut w);
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
    first.save_snapshot(&mut w);
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
