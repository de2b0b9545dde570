//! Microbenchmarks of the simulation substrate itself: raw event
//! throughput, queue operations, and per-flow transport cost. These bound
//! how large a paper-scale experiment can be.

use bench::{run_benches, Bench};
use netsim::link::LinkSpec;
use netsim::packet::{FlowId, Packet, PacketArena};
use netsim::queue::{DropTail, QueueDiscipline, Verdict};
use netsim::rng::SimRng;
use netsim::router::Router;
use netsim::time::{Rate, SimDuration, SimTime};
use netsim::topology::{build_dumbbell, DumbbellSpec};
use netsim::{LinkId, Node, Simulator, TimerId};
use std::any::Any;
use std::hint::black_box;

struct Sink;
impl Node<u32> for Sink {
    fn on_packet(&mut self, _p: Packet<u32>, _c: &mut netsim::Ctx<'_, u32>) {}
    fn on_timer(&mut self, _i: TimerId, _t: u64, _c: &mut netsim::Ctx<'_, u32>) {}
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A node that keeps one timer in flight: each firing re-arms at a
/// pseudo-random offset. With K nodes seeded this holds K pending events
/// steady — the classical "hold model" that exercises the event queue the
/// way a running simulation does (interleaved pop + push at queue depth K).
struct Hold {
    remaining: u64,
    lcg: u64,
}

impl Node<u32> for Hold {
    fn on_packet(&mut self, _p: Packet<u32>, _c: &mut netsim::Ctx<'_, u32>) {}
    fn on_timer(&mut self, _i: TimerId, _t: u64, c: &mut netsim::Ctx<'_, u32>) {
        if self.remaining > 0 {
            self.remaining -= 1;
            self.lcg = self
                .lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // Offsets up to ~1 ms: the bucket being consumed and the next
            // seven.
            let delta = (self.lcg >> 33) % 1_000_000 + 1;
            c.set_timer(SimDuration::from_nanos(delta), 0);
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// One end of a two-node loop that returns every packet it gets and
/// restarts one timer as it does — a sender restarting its RTO on each ACK
/// that makes progress. The timer is always restarted before it is due.
struct RestartPerAck {
    egress: LinkId,
    rto: Option<TimerId>,
    remaining: u64,
}

impl Node<u32> for RestartPerAck {
    fn on_packet(&mut self, p: Packet<u32>, c: &mut netsim::Ctx<'_, u32>) {
        if let Some(id) = self.rto.take() {
            c.cancel_timer(id);
        }
        if self.remaining > 0 {
            self.remaining -= 1;
            self.rto = Some(c.set_timer(SimDuration::from_secs(1), 0));
            c.send(self.egress, Packet::new(p.flow, p.dst, p.src, p.size, 0));
        }
    }
    fn on_timer(&mut self, _i: TimerId, _t: u64, _c: &mut netsim::Ctx<'_, u32>) {}
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Event-queue operation mixes: schedule/fire and schedule/cancel/fire at
/// 1e5–1e7 events, plus the steady-state hold model. These go straight at
/// the engine's timer API, so they measure queue push/pop/cancel cost with
/// no link or transport work attached.
fn event_queue(c: &mut Bench) {
    // Pre-schedule n timers at pseudo-random times within `spread_ns`, then
    // drain. `cancel_every` != 0 cancels every k-th timer before draining
    // (each cancelled timer's entry still pops, with nothing to do).
    fn schedule_drain(n: u64, spread_ns: u64, cancel_every: u64) {
        let mut sim: Simulator<u32> = Simulator::new(3);
        let a = sim.add_node(Box::new(Sink));
        let mut lcg: u64 = 0x9e3779b97f4a7c15;
        let mut ids = Vec::with_capacity(if cancel_every == 0 { 0 } else { n as usize });
        for _ in 0..n {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let at = SimTime::from_nanos((lcg >> 16) % spread_ns + 1);
            let id = sim.core().set_timer_at(a, at, 0);
            if cancel_every != 0 {
                ids.push(id);
            }
        }
        for (i, id) in ids.into_iter().enumerate() {
            if (i as u64).is_multiple_of(cancel_every) {
                sim.core().cancel_timer(id);
            }
        }
        sim.run_to_completion(2 * n);
        black_box(sim.events_processed());
    }

    let mut g = c.benchmark_group("event_queue");
    g.sample_size(10);
    g.throughput_elements(100_000);
    g.bench_function("schedule_fire_1e5", || {
        schedule_drain(100_000, 100_000_000, 0);
    });
    g.throughput_elements(1_000_000);
    g.bench_function("schedule_fire_1e6", || {
        schedule_drain(1_000_000, 1_000_000_000, 0);
    });
    g.bench_function("schedule_cancel_fire_1e6", || {
        schedule_drain(1_000_000, 1_000_000_000, 2);
    });
    // 1e6 timer restarts, each with a packet delivery: sixteen packets go
    // round a 2 x 50 us loop and either end restarts its 1 s timer per
    // arrival. With a queue entry per arming this holds 20,000 entries of
    // cancelled timers per node pending at any instant and pops every one
    // of them; with one wake-up per timer slot it holds the sixteen packets
    // and two timers.
    g.bench_function("rearm_per_ack_1e6", || {
        let mut sim: Simulator<u32> = Simulator::new(3);
        let mut end = |egress| {
            sim.add_node(Box::new(RestartPerAck {
                egress: LinkId(egress),
                rto: None,
                remaining: 500_000,
            }))
        };
        let (a, b) = (end(0), end(1));
        let delay = SimDuration::from_micros(50);
        let link = |src, dst| LinkSpec::drop_tail(src, dst, Rate::from_gbps(10), delay, 1 << 20);
        let ab = sim.add_link(link(a, b));
        sim.add_link(link(b, a));
        for i in 0..16 {
            sim.core()
                .send_on(ab, Packet::new(FlowId(i), a, b, 1000, 0));
        }
        sim.run_to_completion(20_000_000);
        black_box(sim.events_processed());
    });
    // 60 s spread, all scheduled before the first pop: everything past the
    // ring's one turn (~134 ms) waits in the far heap, so this times a
    // 1e6-entry binary heap plus one admission per entry. No scenario has
    // the shape — a flow's one far event is its RTO — and the line is here
    // so that it gets no slower, not because it is fast.
    g.bench_function("far_schedule_fire_1e6", || {
        schedule_drain(1_000_000, 60_000_000_000, 0);
    });
    // The short-flow regime's shape: a start-up burst drains, a handshake
    // timer 1 s out is all that is pending, `run_until` stops in the idle
    // gap before it, and 1e6 events are scheduled from the clamped clock —
    // all earlier than that timer, most of them more than a turn out. If
    // looking for the next event ever carries the cursor to the timer
    // again, every one of them is pushed into the cursor's own bucket
    // (`tests/cursor_discipline.rs` pins that by count).
    g.bench_function("idle_gap_then_dense", || {
        let mut sim: Simulator<u32> = Simulator::new(3);
        let a = sim.add_node(Box::new(Sink));
        for i in 0..2_000u64 {
            sim.core()
                .set_timer_at(a, SimTime::from_nanos(i * 1_000), 0);
        }
        sim.core()
            .set_timer_at(a, SimTime::from_nanos(1_000_000_000), 0);
        let gap = 420_000_000u64;
        sim.run_until(SimTime::from_nanos(gap));
        let mut lcg: u64 = 0x9e3779b97f4a7c15;
        for _ in 0..1_000_000u64 {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let at = SimTime::from_nanos(gap + (lcg >> 16) % 500_000_000);
            sim.core().set_timer_at(a, at, 0);
        }
        sim.run_to_completion(2_000_000);
        black_box(sim.events_processed());
    });
    g.sample_size(3);
    g.throughput_elements(10_000_000);
    g.bench_function("schedule_fire_1e7", || {
        schedule_drain(10_000_000, 10_000_000_000, 0);
    });
    g.finish();

    let mut g = c.benchmark_group("event_queue_hold");
    // 1e6 fire+re-arm cycles at a steady depth: 20k pending events on the
    // ring, and 32 — the population of a few flows on one path, every
    // case of a figure sweep or of simcheck — on the sparse mode's sorted
    // run, which no other gate line reaches.
    let cycles = 1_000_000u64;
    g.sample_size(10);
    g.throughput_elements(cycles);
    for (name, depth) in [
        ("depth_20k_1e6_events", 20_000u64),
        ("depth_32_1e6_events", 32),
    ] {
        g.bench_function(name, || {
            let mut sim: Simulator<u32> = Simulator::new(3);
            let node = sim.add_node(Box::new(Hold {
                remaining: cycles - depth,
                lcg: 0x2545f4914f6cdd1d,
            }));
            let mut lcg: u64 = 0x9e3779b97f4a7c15;
            for _ in 0..depth {
                lcg = lcg
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let at = SimTime::from_nanos((lcg >> 33) % 1_000_000 + 1);
                sim.core().set_timer_at(node, at, 0);
            }
            sim.run_to_completion(2 * cycles);
            black_box(sim.events_processed());
        });
    }
    g.finish();
}

/// Raw engine: push N packets through a saturated link.
fn engine_throughput(c: &mut Bench) {
    let n = 20_000u64;
    let mut g = c.benchmark_group("engine_packet_events");
    g.throughput_elements(n);
    g.sample_size(10);
    g.bench_function("saturated_link", || {
        let mut sim: Simulator<u32> = Simulator::new(1);
        let a = sim.add_node(Box::new(Sink));
        let z = sim.add_node(Box::new(Sink));
        let l = sim.add_link(LinkSpec::drop_tail(
            a,
            z,
            Rate::from_gbps(10),
            SimDuration::from_micros(10),
            1_000_000_000,
        ));
        for i in 0..n {
            sim.core()
                .send_on(l, Packet::new(FlowId(i), a, z, 1500, 0u32));
        }
        sim.run_to_completion(10 * n);
        black_box(sim.events_processed());
    });
    g.finish();
}

/// The tracing hot path: push 1e5 packets through a saturated link with the
/// trace hook disabled (the default — every emission site is one branch on
/// a cold `Option`) and, for comparison, with a counting tracer installed.
/// The disabled variant is checked against the committed baseline: tracing
/// must stay free when off. `router_relay_1e5` puts two routers in the way:
/// three links and two relays per packet, the cost of a hop.
fn link_pipeline(c: &mut Bench) {
    fn push_1e5(trace: bool) {
        let n = 100_000u64;
        let mut sim: Simulator<u32> = Simulator::new(1);
        let a = sim.add_node(Box::new(Sink));
        let z = sim.add_node(Box::new(Sink));
        let l = sim.add_link(LinkSpec::drop_tail(
            a,
            z,
            Rate::from_gbps(10),
            SimDuration::from_micros(10),
            1_000_000_000,
        ));
        if trace {
            let mut count = 0u64;
            sim.set_tracer(Box::new(move |_, ev| {
                count += 1;
                black_box((count, ev));
            }));
        }
        for i in 0..n {
            sim.core()
                .send_on(l, Packet::new(FlowId(i), a, z, 1500, 0u32));
        }
        sim.run_to_completion(10 * n);
        black_box(sim.events_processed());
    }

    let mut g = c.benchmark_group("link_pipeline");
    g.sample_size(10);
    g.throughput_elements(100_000);
    g.bench_function("tracing_disabled_1e5", || push_1e5(false));
    g.bench_function("tracing_enabled_1e5", || push_1e5(true));
    g.bench_function("router_relay_1e5", || {
        let n = 100_000u64;
        let mut sim: Simulator<u32> = Simulator::new(1);
        let a = sim.add_node(Box::new(Sink));
        let r1 = sim.add_node(Box::new(Router::new()));
        let r2 = sim.add_node(Box::new(Router::new()));
        let z = sim.add_node(Box::new(Sink));
        let hops: Vec<LinkId> = [(a, r1), (r1, r2), (r2, z)]
            .into_iter()
            .map(|(src, dst)| {
                sim.add_link(LinkSpec::drop_tail(
                    src,
                    dst,
                    Rate::from_gbps(10),
                    SimDuration::from_micros(10),
                    1_000_000_000,
                ))
            })
            .collect();
        for (router, out) in [(r1, hops[1]), (r2, hops[2])] {
            sim.node_as_mut::<Router>(router)
                .expect("routers were added as routers")
                .add_route(z, out);
        }
        for i in 0..n {
            sim.core()
                .send_on(hops[0], Packet::new(FlowId(i), a, z, 1500, 0u32));
        }
        sim.run_to_completion(10 * n);
        black_box(sim.events_processed());
    });
    g.finish();
}

/// Drop-tail enqueue/dequeue cycle (arena-parked packets, handle moves).
fn queue_ops(c: &mut Bench) {
    let n = 100_000u64;
    let mut g = c.benchmark_group("queue_ops");
    g.throughput_elements(n);
    g.sample_size(10);
    g.bench_function("droptail_cycle", || {
        let mut arena: PacketArena<u32> = PacketArena::new();
        let mut q = DropTail::new(64 * 1500);
        let mut aqm_drops = Vec::new();
        let src = netsim::NodeId(0);
        let dst = netsim::NodeId(1);
        for i in 0..n {
            let h = arena.alloc(Packet::new(FlowId(i), src, dst, 1500, 0u32));
            if q.enqueue(arena.meta(h), SimTime::ZERO) == Verdict::Dropped {
                arena.free(h);
            }
            if i % 2 == 1 {
                if let Some(m) = black_box(q.dequeue(SimTime::ZERO, &mut aqm_drops)) {
                    arena.free(m.handle);
                }
            }
        }
        black_box(arena.live());
    });
    g.finish();
}

/// Packet-arena alloc/take churn at a steady in-flight depth, the access
/// pattern of a saturated link (every transmit allocates, every delivery
/// releases). Measures slab reuse + generation stamping overhead.
fn packet_arena(c: &mut Bench) {
    let n = 1_000_000u64;
    let depth = 256usize;
    let mut g = c.benchmark_group("packet_arena");
    g.throughput_elements(n);
    g.sample_size(10);
    g.bench_function("churn_1e6", || {
        let mut arena: PacketArena<u32> = PacketArena::new();
        let src = netsim::NodeId(0);
        let dst = netsim::NodeId(1);
        let mut in_flight = std::collections::VecDeque::with_capacity(depth);
        for i in 0..n {
            let h = arena.alloc(Packet::new(FlowId(i), src, dst, 1500, i as u32));
            in_flight.push_back(h);
            if in_flight.len() > depth {
                let h = in_flight.pop_front().unwrap();
                black_box(arena.take(h).size);
            }
        }
        black_box((arena.live(), arena.capacity()));
    });
    g.finish();
}

/// Sharded-engine coordination overhead: a single tiny packet circling a
/// ring of partitions, so each conservative window carries exactly one
/// cross-shard hop and the measurement is all barrier + mailbox + window
/// arithmetic, no simulation work. Run on one thread so the number is the
/// coordination cost itself, not contention.
fn shard_barrier(c: &mut Bench) {
    use netsim::shard::{run_sharded_with, ShardHandle, ShardHooks};
    use netsim::{LinkId, NodeId};

    /// Forwards the token to the next partition until its budget is spent.
    struct Ring {
        egress: LinkId,
        seen: u64,
    }
    impl Node<u64> for Ring {
        fn on_packet(&mut self, pkt: Packet<u64>, ctx: &mut netsim::Ctx<'_, u64>) {
            self.seen += 1;
            if pkt.payload > 0 {
                ctx.send(
                    self.egress,
                    Packet::new(pkt.flow, pkt.dst, pkt.dst, pkt.size, pkt.payload - 1),
                );
            }
        }
        fn on_timer(&mut self, _i: TimerId, _t: u64, _c: &mut netsim::Ctx<'_, u64>) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    const PARTS: usize = 4;
    const HOPS: u64 = 2_000;

    // One ring circuit; `telemetry` toggles the per-window record path so
    // the gate can pin "telemetry off costs nothing" while the on-variant
    // documents what a record per (window, partition) adds.
    fn ring(telemetry: bool) {
        let hooks = ShardHooks {
            telemetry,
            ..ShardHooks::default()
        };
        let run = run_sharded_with(
            PARTS,
            1,
            None,
            hooks,
            |rank, handle: &mut ShardHandle<u64>| {
                let mut sim: Simulator<u64> = Simulator::new(rank as u64);
                let node = sim.add_node(Box::new(Ring {
                    egress: LinkId(1),
                    seen: 0,
                }));
                let ingress = sim.add_link(LinkSpec::drop_tail(
                    node,
                    node,
                    Rate::from_gbps(10),
                    SimDuration::ZERO,
                    1 << 20,
                ));
                let portal = handle.add_portal(
                    &mut sim,
                    (rank + 1) % PARTS,
                    NodeId(0),
                    ingress,
                    SimDuration::from_micros(100),
                );
                let egress = sim.add_link(LinkSpec::drop_tail(
                    node,
                    portal,
                    Rate::from_gbps(10),
                    SimDuration::ZERO,
                    1 << 20,
                ));
                assert_eq!(egress, LinkId(1));
                if rank == 0 {
                    sim.core()
                        .send_on(egress, Packet::new(FlowId(1), node, node, 64, HOPS));
                }
                sim
            },
            |_, sim: &mut Simulator<u64>| sim.node_as::<Ring>(NodeId(0)).unwrap().seen,
        );
        black_box((
            run.results.iter().sum::<u64>(),
            run.telemetry.map(|t| t.len()),
        ));
    }

    let mut g = c.benchmark_group("shard_barrier");
    g.sample_size(10);
    g.throughput_elements(HOPS);
    g.bench_function("ring_hop_2e3", || ring(false));
    g.bench_function("ring_hop_2e3_telemetry", || ring(true));
    g.finish();
}

/// The quantile sketch on the metrics hot path: insert cost for 1e6
/// samples (one bucket-key computation + BTreeMap bump each) and the cost
/// of merging 64 shard-local sketches into one aggregate — the two
/// operations large scenarios lean on instead of per-flow Ecdf samples.
fn quantile_sketch(c: &mut Bench) {
    use netsim::stats::LogHistogram;

    /// Deterministic positive samples spanning several octaves (the LCG
    /// keeps the distribution identical run to run).
    fn sample(lcg: &mut u64) -> f64 {
        *lcg = lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((*lcg >> 33) % 1_000_000 + 1) as f64 / 1_000.0
    }

    let n = 1_000_000u64;
    let mut g = c.benchmark_group("quantile_sketch");
    g.sample_size(10);
    g.throughput_elements(n);
    g.bench_function("insert_1e6", || {
        let mut h = LogHistogram::new();
        let mut lcg: u64 = 0x9e3779b97f4a7c15;
        for _ in 0..n {
            h.add(sample(&mut lcg));
        }
        black_box((h.count(), h.quantile(99.0)));
    });

    // Merge: 64 pre-built 10k-sample sketches folded into a fresh one per
    // iteration — the per-window/per-shard aggregation step.
    let parts: Vec<LogHistogram> = (0..64)
        .map(|i| {
            let mut h = LogHistogram::new();
            let mut lcg: u64 = 0x9e3779b97f4a7c15 ^ (i as u64).wrapping_mul(0xff51afd7ed558ccd);
            for _ in 0..10_000 {
                h.add(sample(&mut lcg));
            }
            h
        })
        .collect();
    g.throughput_elements(64);
    g.bench_function("merge_64x10k", || {
        let mut agg = LogHistogram::new();
        for p in &parts {
            agg.merge(p);
        }
        black_box((agg.count(), agg.quantile(50.0)));
    });
    g.finish();
}

/// Full transport stack: one 100 KB Halfback flow on the Emulab dumbbell.
fn transport_flow(c: &mut Bench) {
    let mut g = c.benchmark_group("transport_flow");
    g.sample_size(20);
    g.bench_function("halfback_100kb_dumbbell", || {
        let mut sim = transport::TransportSim::new(7);
        let net = build_dumbbell(&mut sim, &DumbbellSpec::emulab(1), |_, _| {
            Box::new(transport::Host::new())
        });
        sim.with_node_mut::<transport::Host, _>(net.left_hosts[0], |h, _| {
            h.wire(net.left_hosts[0], net.left_egress[0])
        });
        sim.with_node_mut::<transport::Host, _>(net.right_hosts[0], |h, _| {
            h.wire(net.right_hosts[0], net.right_egress[0])
        });
        sim.with_node_mut::<transport::Host, _>(net.left_hosts[0], |h, core| {
            h.start_flow(
                core,
                FlowId(1),
                net.right_hosts[0],
                100_000,
                Box::new(halfback::Halfback::new()),
            )
        });
        sim.run_to_completion(1_000_000);
        black_box(sim.events_processed());
    });
    g.finish();
}

/// Workload generation cost (path populations and schedules).
fn workload_generation(c: &mut Bench) {
    let mut g = c.benchmark_group("workload_generation");
    g.sample_size(10);
    g.bench_function("planetlab_2600_paths", || {
        black_box(workload::planetlab_paths(2600, 17));
    });
    g.bench_function("poisson_schedule_600s", || {
        black_box(workload::Schedule::fixed_size(
            Rate::from_mbps(15),
            100_000,
            0.5,
            SimTime::ZERO + SimDuration::from_secs(600),
            SimRng::new(5),
        ));
    });
    g.finish();
}

fn main() {
    run_benches(&[
        ("event_queue", event_queue),
        ("engine_throughput", engine_throughput),
        ("link_pipeline", link_pipeline),
        ("queue_ops", queue_ops),
        ("packet_arena", packet_arena),
        ("quantile_sketch", quantile_sketch),
        ("shard_barrier", shard_barrier),
        ("transport_flow", transport_flow),
        ("workload_generation", workload_generation),
    ]);
}
