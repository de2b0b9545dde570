//! Substrate conservation laws, checked over randomized traffic with the
//! trace hook: every packet offered to the network is eventually delivered,
//! dropped by a queue, or dropped by the wire — nothing is duplicated or
//! lost silently. Cases are drawn from a seeded [`SimRng`] so every run
//! checks the same corpus.

use netsim::engine::TraceEvent;
use netsim::link::LinkSpec;
use netsim::loss::LossModel;
use netsim::node::{Node, TimerId};
use netsim::packet::{FlowId, Packet};
use netsim::queue::DropTail;
use netsim::rng::SimRng;
use netsim::time::{Rate, SimDuration};
use netsim::{Ctx, Simulator};
use std::any::Any;
use std::cell::RefCell;
use std::rc::Rc;

struct Count(u64);
impl Node<u32> for Count {
    fn on_packet(&mut self, _p: Packet<u32>, _c: &mut Ctx<'_, u32>) {
        self.0 += 1;
    }
    fn on_timer(&mut self, _i: TimerId, _t: u64, _c: &mut Ctx<'_, u32>) {}
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[test]
fn offered_equals_delivered_plus_dropped() {
    let mut gen = SimRng::new(0xC0_05E4);
    for case in 0..32 {
        let seed = gen.index(1000) as u64;
        let n = 1 + gen.index(399) as u64;
        let buf_pkts = 1 + gen.index(19) as u64;
        let loss_p = gen.uniform_range(0.0, 0.4);
        let rate_kbps = 50 + gen.index(4950) as u64;

        let mut sim: Simulator<u32> = Simulator::new(seed);
        let a = sim.add_node(Box::new(Count(0)));
        let b = sim.add_node(Box::new(Count(0)));
        let l = sim.add_link(LinkSpec {
            src: a,
            dst: b,
            rate: Rate::from_kbps(rate_kbps),
            delay: SimDuration::from_millis(5),
            queue: Box::new(DropTail::new(buf_pkts * 1500)),
            loss: LossModel::Bernoulli { p: loss_p },
        });

        let deliveries = Rc::new(RefCell::new(0u64));
        let queue_drops = Rc::new(RefCell::new(0u64));
        let wire_drops = Rc::new(RefCell::new(0u64));
        let (d2, q2, w2) = (deliveries.clone(), queue_drops.clone(), wire_drops.clone());
        sim.set_tracer(Box::new(move |_, ev| match ev {
            TraceEvent::Deliver { .. } => *d2.borrow_mut() += 1,
            TraceEvent::QueueDrop { .. } => *q2.borrow_mut() += 1,
            TraceEvent::WireDrop { .. } => *w2.borrow_mut() += 1,
            TraceEvent::TxStart { .. } => {}
            // No faults installed in this corpus; these must never fire.
            TraceEvent::FaultDrop { .. }
            | TraceEvent::Blackhole { .. }
            | TraceEvent::Duplicate { .. }
            | TraceEvent::CorruptDrop { .. } => panic!("fault event without faults"),
        }));

        // Random-ish offered traffic: bursts with gaps.
        let mut rng = SimRng::new(seed ^ 77);
        let mut sent = 0u64;
        for i in 0..n {
            let burst = 1 + rng.index(5) as u64;
            for _ in 0..burst {
                sim.core()
                    .send_on(l, Packet::new(FlowId(i), a, b, 1500, 0u32));
                sent += 1;
            }
            // Let some time pass between bursts.
            let gap = SimDuration::from_micros(rng.index(20_000) as u64);
            let t = sim.now() + gap;
            sim.run_until(t);
        }
        sim.run_to_completion(sent * 10 + 1000);

        let delivered = *deliveries.borrow();
        let qd = *queue_drops.borrow();
        let wd = *wire_drops.borrow();
        assert_eq!(
            delivered + qd + wd,
            sent,
            "case {case} (seed {seed}): conservation violated"
        );
        // Node-level receive count agrees with the trace.
        assert_eq!(sim.node_as::<Count>(b).unwrap().0, delivered, "case {case}");
        // Link stats agree: transmitted = offered - queue drops.
        assert_eq!(sim.link_stats(l).tx_packets, sent - qd, "case {case}");
        assert_eq!(sim.link_stats(l).wire_lost, wd, "case {case}");
        assert_eq!(sim.queue_stats(l).dropped, qd, "case {case}");
        // Queue fully drained.
        assert_eq!(
            sim.queue_stats(l).enqueued,
            sim.queue_stats(l).dequeued,
            "case {case}"
        );
    }
}

/// Conservation with every fault class active at once: packets offered to a
/// faulted link are each accounted for exactly once (down-drop, queue drop,
/// wire drop, blackhole, corrupt-drop, or delivery), and duplication adds
/// copies that are themselves conserved.
#[test]
fn fault_pipeline_conserves_packets() {
    use netsim::time::SimTime;
    use netsim::FaultSpec;

    let mut gen = SimRng::new(0xFA_017);
    for case in 0..24 {
        let seed = gen.index(1000) as u64;
        let n = 50 + gen.index(300) as u64;
        let dup_p = gen.uniform_range(0.0, 0.4);
        let corrupt_p = gen.uniform_range(0.0, 0.3);
        let reorder_p = gen.uniform_range(0.0, 0.8);
        let loss_p = gen.uniform_range(0.0, 0.2);
        let t = |ms: u64| SimTime::ZERO + SimDuration::from_millis(ms);

        let mut sim: Simulator<u32> = Simulator::new(seed);
        let a = sim.add_node(Box::new(Count(0)));
        let b = sim.add_node(Box::new(Count(0)));
        let l = sim.add_link(LinkSpec {
            src: a,
            dst: b,
            rate: Rate::from_mbps(2),
            delay: SimDuration::from_millis(5),
            queue: Box::new(DropTail::new(8 * 1500)),
            loss: LossModel::Bernoulli { p: loss_p },
        });
        sim.set_link_faults(
            l,
            FaultSpec::none()
                .down_window(t(40), t(80))
                .blackhole_window(t(120), t(160))
                .with_duplication(dup_p)
                .with_corruption(corrupt_p)
                .with_reorder(reorder_p, SimDuration::from_millis(20))
                .rate_step(t(100), Rate::from_mbps(1))
                .delay_step(t(100), SimDuration::from_millis(15)),
        );

        let counts = Rc::new(RefCell::new([0u64; 7]));
        let c2 = counts.clone();
        sim.set_tracer(Box::new(move |_, ev| {
            let i = match ev {
                TraceEvent::Deliver { .. } => 0,
                TraceEvent::QueueDrop { .. } => 1,
                TraceEvent::WireDrop { .. } => 2,
                TraceEvent::FaultDrop { .. } => 3,
                TraceEvent::Blackhole { .. } => 4,
                TraceEvent::Duplicate { .. } => 5,
                TraceEvent::CorruptDrop { .. } => 6,
                TraceEvent::TxStart { .. } => return,
            };
            c2.borrow_mut()[i] += 1;
        }));

        let mut rng = SimRng::new(seed ^ 31);
        let mut sent = 0u64;
        for i in 0..n {
            sim.core()
                .send_on(l, Packet::new(FlowId(i), a, b, 1500, 0u32));
            sent += 1;
            let gap = SimDuration::from_micros(rng.index(10_000) as u64);
            let until = sim.now() + gap;
            sim.run_until(until);
        }
        sim.run_to_completion(sent * 10 + 1000);

        let [delivered, qd, wd, fault_dropped, blackholed, duplicated, corrupt_dropped] =
            *counts.borrow();
        let stats = sim.link_stats(l);
        // Offer-side conservation: every offered packet was down-dropped,
        // queue-dropped, or fully serialized (queue drains at completion).
        assert_eq!(stats.offered, sent, "case {case} (seed {seed})");
        assert_eq!(
            fault_dropped + qd + stats.tx_packets,
            sent,
            "case {case} (seed {seed}): offer-side conservation"
        );
        // Wire-side conservation: serialized packets plus duplicate copies
        // all either dropped (wire, blackhole, corrupt) or delivered.
        assert_eq!(
            stats.tx_packets + duplicated,
            wd + blackholed + corrupt_dropped + delivered,
            "case {case} (seed {seed}): wire-side conservation"
        );
        // Stats agree with the trace.
        assert_eq!(stats.down_dropped, fault_dropped, "case {case}");
        assert_eq!(stats.blackholed, blackholed, "case {case}");
        assert_eq!(stats.duplicated, duplicated, "case {case}");
        assert_eq!(stats.wire_lost, wd, "case {case}");
        assert_eq!(sim.core().corrupt_dropped(), corrupt_dropped, "case {case}");
        assert_eq!(sim.node_as::<Count>(b).unwrap().0, delivered, "case {case}");
        // Corrupt copies: every marked packet yields >= 1 corrupt-drop
        // unless wire loss or a blackhole took it first, and duplication can
        // raise the drop count above the mark count.
        assert!(
            corrupt_dropped <= stats.corrupt_marked + duplicated,
            "case {case}: corrupt drops {corrupt_dropped} > marked {} + dup {duplicated}",
            stats.corrupt_marked
        );
        sim.assert_drained();
    }
}

/// Trace events and stats counters move atomically: after *every* engine
/// step, the tracer's running counts equal the corresponding [`LinkStats`]
/// and corrupt-drop counters exactly. An observer can therefore never see a
/// trace event whose stats increment hasn't landed yet (or vice versa) —
/// the contract the flight recorder's merged exports rely on.
#[test]
fn trace_events_and_stats_move_in_lockstep() {
    use netsim::time::SimTime;
    use netsim::FaultSpec;

    let t = |ms: u64| SimTime::ZERO + SimDuration::from_millis(ms);
    let mut sim: Simulator<u32> = Simulator::new(0x10C5);
    let a = sim.add_node(Box::new(Count(0)));
    let b = sim.add_node(Box::new(Count(0)));
    let l = sim.add_link(LinkSpec {
        src: a,
        dst: b,
        rate: Rate::from_mbps(2),
        delay: SimDuration::from_millis(5),
        queue: Box::new(DropTail::new(6 * 1500)),
        loss: LossModel::Bernoulli { p: 0.15 },
    });
    sim.set_link_faults(
        l,
        FaultSpec::none()
            .down_window(t(30), t(60))
            .blackhole_window(t(90), t(120))
            .with_duplication(0.3)
            .with_corruption(0.2)
            .with_reorder(0.5, SimDuration::from_millis(15)),
    );

    // [deliver, queue_drop, wire_drop, fault_drop, blackhole, dup, corrupt]
    let counts = Rc::new(RefCell::new([0u64; 7]));
    let c2 = counts.clone();
    sim.set_tracer(Box::new(move |_, ev| {
        let i = match ev {
            TraceEvent::Deliver { .. } => 0,
            TraceEvent::QueueDrop { .. } => 1,
            TraceEvent::WireDrop { .. } => 2,
            TraceEvent::FaultDrop { .. } => 3,
            TraceEvent::Blackhole { .. } => 4,
            TraceEvent::Duplicate { .. } => 5,
            TraceEvent::CorruptDrop { .. } => 6,
            TraceEvent::TxStart { .. } => return,
        };
        c2.borrow_mut()[i] += 1;
    }));

    let mut rng = SimRng::new(0xBEEF);
    for i in 0..120u64 {
        sim.core()
            .send_on(l, Packet::new(FlowId(i), a, b, 1500, 0u32));
        let gap = SimDuration::from_micros(500 + rng.index(4_000) as u64);
        let until = sim.now() + gap;
        // Step one event at a time so the lockstep assertion runs at every
        // observable instant, not just at quiescence.
        let mut steps = 0u64;
        while sim.next_event_time().is_some_and(|at| at <= until) {
            assert!(sim.step());
            steps += 1;
            assert!(steps < 100_000, "runaway");
            let [delivered, qd, wd, fd, bh, dup, cd] = *counts.borrow();
            let stats = sim.link_stats(l);
            assert_eq!(stats.wire_lost, wd, "after step {steps}");
            assert_eq!(stats.down_dropped, fd, "after step {steps}");
            assert_eq!(stats.blackholed, bh, "after step {steps}");
            assert_eq!(stats.duplicated, dup, "after step {steps}");
            assert_eq!(sim.queue_stats(l).dropped, qd, "after step {steps}");
            assert_eq!(sim.core().corrupt_dropped(), cd, "after step {steps}");
            assert_eq!(
                sim.node_as::<Count>(b).unwrap().0,
                delivered,
                "after step {steps}"
            );
        }
    }
    sim.run_to_completion(10_000);
    let [delivered, qd, _, fd, bh, dup, cd] = *counts.borrow();
    let stats = sim.link_stats(l);
    assert_eq!(fd + qd + stats.tx_packets, stats.offered);
    assert_eq!(
        stats.tx_packets + dup,
        stats.wire_lost + bh + cd + delivered
    );
    assert!(delivered > 0 && stats.wire_lost > 0, "corpus too tame");
}

/// Cross-shard conservation: when a topology is split across partitions
/// (see `netsim::shard`), the wire-side equation must close exactly at the
/// boundary — every packet delivered to a portal by the source egress link
/// reappears as exactly one injected arrival on the destination's ingress
/// stub — and the per-partition arenas must all be empty at drain.
#[test]
fn wire_equation_closes_across_shard_boundaries() {
    use netsim::link::LinkStats;
    use netsim::shard::{run_sharded_with, ShardHandle, ShardHooks};
    use netsim::{LinkId, NodeId};

    /// Paced source: sends `remaining` packets with seeded random gaps.
    struct Gen {
        egress: LinkId,
        remaining: u64,
        rng: SimRng,
        sent: u64,
    }
    impl Node<u32> for Gen {
        fn on_packet(&mut self, _p: Packet<u32>, _c: &mut Ctx<'_, u32>) {}
        fn on_timer(&mut self, _i: TimerId, _t: u64, ctx: &mut Ctx<'_, u32>) {
            self.remaining -= 1;
            self.sent += 1;
            let me = ctx.node_id();
            ctx.send(
                self.egress,
                Packet::new(FlowId(self.sent), me, me, 1200, 0u32),
            );
            if self.remaining > 0 {
                let gap = SimDuration::from_micros(50 + self.rng.index(3000) as u64);
                ctx.set_timer(gap, 0);
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    const N: u64 = 300;

    // Two symmetric partitions: node 0 receives (Count), node 1 generates,
    // link 0 is the ingress stub, link 1 the lossy egress into the portal.
    let build = |rank: usize, handle: &mut ShardHandle<u32>| {
        let mut sim: Simulator<u32> = Simulator::new(0x5AD + rank as u64);
        let sink = sim.add_node(Box::new(Count(0)));
        let gen = sim.add_node(Box::new(Gen {
            egress: LinkId(1),
            remaining: N,
            rng: SimRng::new(100 + rank as u64),
            sent: 0,
        }));
        let ingress = sim.add_link(LinkSpec::drop_tail(
            sink,
            sink,
            Rate::from_mbps(100),
            SimDuration::ZERO,
            1 << 22,
        ));
        let portal = handle.add_portal(
            &mut sim,
            1 - rank,
            NodeId(0),
            ingress,
            SimDuration::from_millis(5),
        );
        let egress = sim.add_link(LinkSpec {
            src: gen,
            dst: portal,
            rate: Rate::from_mbps(10),
            delay: SimDuration::from_millis(1),
            queue: Box::new(DropTail::new(1 << 22)),
            loss: LossModel::Bernoulli { p: 0.15 },
        });
        assert_eq!(egress, LinkId(1));
        sim.core().set_timer(gen, SimDuration::from_micros(10), 0);
        sim
    };
    let finish = |_rank: usize, sim: &mut Simulator<u32>| {
        let received = sim.node_as::<Count>(NodeId(0)).unwrap().0;
        let sent = sim.node_as::<Gen>(NodeId(1)).unwrap().sent;
        (
            received,
            sent,
            sim.link_stats(LinkId(0)),
            sim.link_stats(LinkId(1)),
        )
    };

    for threads in [1usize, 2] {
        let run = run_sharded_with(2, threads, None, ShardHooks::default(), build, finish);
        let sides: Vec<(u64, u64, LinkStats, LinkStats)> = run.results;
        let mut crossings = 0;
        for p in 0..2 {
            let (received, sent, ref ingress, ref egress) = sides[p];
            let (_, _, _, ref peer_egress) = sides[1 - p];
            assert_eq!(sent, N, "partition {p} offered everything");
            // Boundary equation: packets the peer's egress delivered into
            // its portal == arrivals injected on our ingress stub ==
            // packets our sink saw.
            assert_eq!(
                ingress.delivered, peer_egress.delivered,
                "partition {p}: boundary books don't close (threads {threads})"
            );
            assert_eq!(received, ingress.delivered, "partition {p}: sink count");
            // Egress-side equation: everything serialized was either lost
            // on the wire or handed to the portal.
            assert_eq!(
                egress.tx_packets,
                egress.delivered + egress.wire_lost,
                "partition {p}: egress wire books"
            );
            assert_eq!(egress.offered, N, "partition {p}: no queue losses expected");
            assert!(egress.wire_lost > 0, "corpus too tame to test loss");
            crossings += egress.delivered;
        }
        assert_eq!(
            run.cross_messages, crossings,
            "crossing tally (threads {threads})"
        );
        // Arena hygiene: packets crossed by value, so at drain no shard
        // arena may hold a live slot.
        let live: usize = run.hygiene.iter().map(|h| h.live_packets).sum();
        assert_eq!(live, 0, "live packets stranded across shard arenas");
        assert!(
            run.hygiene.iter().all(|h| h.is_clean()),
            "shard hygiene unclean at drain"
        );
    }
}

/// A faulted run is fully determined by `(seed, spec)`: identical seeds give
/// identical delivery schedules, and the fault stream is independent of the
/// engine RNG (installing a noop-ish fault spec doesn't shift wire loss).
#[test]
fn fault_runs_replay_from_seed_and_spec() {
    use netsim::FaultSpec;

    let run = |seed: u64, with_faults: bool| {
        let mut sim: Simulator<u32> = Simulator::new(seed);
        let a = sim.add_node(Box::new(Count(0)));
        let b = sim.add_node(Box::new(Count(0)));
        let l = sim.add_link(LinkSpec {
            src: a,
            dst: b,
            rate: Rate::from_mbps(5),
            delay: SimDuration::from_millis(10),
            queue: Box::new(DropTail::new(200 * 1500)),
            loss: LossModel::Bernoulli { p: 0.1 },
        });
        if with_faults {
            sim.set_link_faults(
                l,
                FaultSpec::none()
                    .with_duplication(0.2)
                    .with_reorder(0.5, SimDuration::from_millis(30)),
            );
        }
        let deliveries = Rc::new(RefCell::new(Vec::new()));
        let d2 = deliveries.clone();
        sim.set_tracer(Box::new(move |at, ev| {
            if let TraceEvent::Deliver { packet, .. } = ev {
                d2.borrow_mut().push((at, *packet));
            }
        }));
        for i in 0..200 {
            sim.core()
                .send_on(l, Packet::new(FlowId(i), a, b, 1500, 0u32));
        }
        sim.run_to_completion(20_000);
        let wire_lost = sim.link_stats(l).wire_lost;
        let log = deliveries.borrow().clone();
        (log, wire_lost)
    };
    assert_eq!(run(3, true), run(3, true), "same (seed, spec) must replay");
    assert_ne!(run(3, true).0, run(4, true).0, "seed must matter");
    // The fault substream is private: the engine's wire-loss draws are
    // byte-identical whether or not faults are installed.
    assert_eq!(
        run(5, false).1,
        run(5, true).1,
        "fault draws must not perturb the engine RNG"
    );
}

/// A router hands a packet on where it is parked (`Node::relay`), so every
/// way a hop can end has to release or pass on the one arena slot: a
/// corrupted arrival is dropped at the router and never relayed, a packet
/// with no route is delivered to the router and counted there, and one
/// relayed into a link that is down is refused with its slot freed. Host —
/// corrupting link — router — link with a down window — host, with the
/// books of both links and the router balanced against the trace.
#[test]
fn router_hop_conserves_packets_and_slots() {
    use netsim::router::Router;
    use netsim::time::SimTime;
    use netsim::{FaultSpec, NodeId};

    let t = |ms: u64| SimTime::ZERO + SimDuration::from_millis(ms);
    let mut sim: Simulator<u32> = Simulator::new(0x0110);
    let a = sim.add_node(Box::new(Count(0)));
    let r = sim.add_node(Box::new(Router::new()));
    let b = sim.add_node(Box::new(Count(0)));
    let link = |src, dst, mbps, buf_pkts: u64| LinkSpec {
        src,
        dst,
        rate: Rate::from_mbps(mbps),
        delay: SimDuration::from_millis(2),
        queue: Box::new(DropTail::new(buf_pkts * 1500)),
        loss: LossModel::None,
    };
    // The first hop carries everything; the second is the bottleneck.
    let first = sim.add_link(link(a, r, 1000, 1024));
    let second = sim.add_link(link(r, b, 20, 3));
    sim.set_link_faults(first, FaultSpec::none().with_corruption(0.25));
    sim.set_link_faults(second, FaultSpec::none().down_window(t(60), t(140)));
    sim.node_as_mut::<Router>(r).unwrap().add_route(b, second);

    // [deliver at r, deliver at b, corrupt-drop at r, fault-drop, queue-drop]
    let counts = Rc::new(RefCell::new([0u64; 5]));
    let c2 = counts.clone();
    sim.set_tracer(Box::new(move |_, ev| {
        let i = match *ev {
            TraceEvent::Deliver { node, .. } if node == r => 0,
            TraceEvent::Deliver { node, .. } if node == b => 1,
            TraceEvent::CorruptDrop { node, .. } if node == r => 2,
            TraceEvent::FaultDrop { link, .. } if link == second => 3,
            TraceEvent::QueueDrop { link, .. } if link == second => 4,
            TraceEvent::TxStart { .. } => return,
            ref other => panic!("unexpected {other:?}"),
        };
        c2.borrow_mut()[i] += 1;
    }));

    let mut rng = SimRng::new(0xD0_0F);
    let mut sent = 0u64;
    for i in 0..400u64 {
        // Every eighth packet is for a node the router has no route to.
        let dst = if i % 8 == 7 { NodeId(99) } else { b };
        for _ in 0..1 + rng.index(3) {
            sim.core()
                .send_on(first, Packet::new(FlowId(i), a, dst, 1500, 0u32));
            sent += 1;
        }
        let until = sim.now() + SimDuration::from_micros(rng.index(1_500) as u64);
        sim.run_until(until);
    }
    sim.run_to_completion(sent * 10);

    let [at_router, at_b, corrupt, fault_dropped, queue_dropped] = *counts.borrow();
    let (hop1, hop2) = (sim.link_stats(first), sim.link_stats(second));
    let corrupt_at_nodes = sim.core().corrupt_dropped();
    let router = sim.node_as::<Router>(r).unwrap();
    assert!(corrupt > 0 && fault_dropped > 0 && queue_dropped > 0 && router.unroutable() > 0);
    // First hop: everything sent arrived at the router, intact or not.
    assert_eq!(hop1.tx_packets, sent);
    assert_eq!((hop1.delivered, hop1.corrupt_dropped), (at_router, corrupt));
    assert_eq!(at_router + corrupt, sent);
    assert_eq!(corrupt_at_nodes, corrupt);
    // The router: every intact arrival was relayed or had no route; no
    // corrupted one was.
    assert_eq!(router.forwarded() + router.unroutable(), at_router);
    assert_eq!(hop2.offered, router.forwarded());
    // Second hop: refused while down, dropped by the queue, or delivered.
    assert_eq!(hop2.down_dropped, fault_dropped);
    assert_eq!(sim.queue_stats(second).dropped, queue_dropped);
    assert_eq!(
        fault_dropped + queue_dropped + hop2.tx_packets,
        hop2.offered
    );
    assert_eq!((hop2.delivered, at_b), (hop2.tx_packets, hop2.tx_packets));
    assert_eq!(sim.node_as::<Count>(b).unwrap().0, at_b);
    // No slot outlived its packet.
    sim.assert_drained();
}
