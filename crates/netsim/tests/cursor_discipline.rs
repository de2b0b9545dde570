//! The event wheel's cursor must stay behind the clock.
//!
//! A push into the bucket the queue is consuming is the exception: the
//! bucket was loaded and its run is being read out. Where buckets are dense
//! that bucket is split into sub-buckets and the push appended to one, but
//! where they are sparse next to nothing should land there at all. If the
//! cursor ever gets ahead of the clock — it used to, whenever a driver
//! looked at the queue head across an idle gap with a far timer pending —
//! every later push lands in the cursor's bucket, which grows past 64
//! entries and splits: same firing order, same outputs, the whole run
//! pushed through one bucket, and no other test notices. These two shapes
//! are the ones that did it: windows of a sharded run and a
//! run-until-per-arrival driver, each with a 1 s timer pending while sparse
//! short-lived traffic passes. [`Simulator::split_pushes`] must stay under
//! 5 % of the events fired. (The driver's buckets of a hundred timers due at
//! one instant are split legitimately when the cursor reaches them, which
//! is why the count is of pushes into a split bucket, not of pops from one:
//! those timers are a fifth of its pops.)
//!
//! The queue's other always-on counter is watched here too:
//! [`Simulator::dead_timer_pops`], the timer entries that pop with nothing
//! to do. One queue entry per arming would leave one per cancelled timer —
//! 5–9 % of all events on congested runs, nine tenths of the pending queue.

use netsim::link::LinkSpec;
use netsim::shard::{run_sharded_with, ShardHandle, ShardHooks};
use netsim::time::{Rate, SimDuration, SimTime};
use netsim::topology::{build_dumbbell, DumbbellSpec, Side};
use netsim::{Ctx, FlowId, LinkId, Node, NodeId, Packet, Simulator, TimerId};
use std::any::Any;

/// Replies through `egress` with a decremented hop budget until it is spent.
struct Bouncer {
    egress: LinkId,
}

impl Node<u64> for Bouncer {
    fn on_packet(&mut self, pkt: Packet<u64>, ctx: &mut Ctx<'_, u64>) {
        if pkt.payload > 0 {
            let reply = Packet::new(pkt.flow, pkt.dst, pkt.src, pkt.size, pkt.payload - 1);
            ctx.send(self.egress, reply);
        }
    }
    fn on_timer(&mut self, _id: TimerId, _token: u64, _ctx: &mut Ctx<'_, u64>) {}
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

const FAR_TIMER: SimDuration = SimDuration::from_secs(1);

fn assert_wheel_served(what: &str, sim: &Simulator<u64>) {
    let (split, events) = (sim.split_pushes(), sim.events_processed());
    assert!(
        split * 20 < events,
        "{what}: {split} of {events} events were pushed into a split bucket"
    );
}

#[test]
fn sharded_windows_keep_the_cursor_behind_the_clock() {
    const BURST: u64 = 4_000;
    const HOPS: u64 = 10;
    // One pending far timer per flow, as a handshake RTO would be; they also
    // keep both queues well past the size where the wheels take over from
    // the start-up heap.
    const TIMERS: u64 = 2_000;
    // Per partition: node 0 = bouncer, link 0 = ingress stub, node 1 =
    // portal to the peer (2 ms), link 1 = egress. 1000 B at 1 Gbps is 8 µs,
    // so the burst is 32 ms long and eleven passes end well before 1 s.
    let build = |rank: usize, handle: &mut ShardHandle<u64>| {
        let mut sim: Simulator<u64> = Simulator::new(rank as u64);
        let node = sim.add_node(Box::new(Bouncer { egress: LinkId(1) }));
        let link =
            |dst| LinkSpec::drop_tail(node, dst, Rate::from_gbps(1), SimDuration::ZERO, 1 << 30);
        let ingress = sim.add_link(link(node));
        let portal = handle.add_portal(
            &mut sim,
            1 - rank,
            NodeId(0),
            ingress,
            SimDuration::from_millis(2),
        );
        let egress = sim.add_link(link(portal));
        assert_eq!(egress, LinkId(1));
        for token in 0..TIMERS {
            sim.core().set_timer(node, FAR_TIMER, token);
        }
        if rank == 0 {
            for i in 0..BURST {
                let pkt = Packet::new(FlowId(i), node, node, 1000, HOPS);
                sim.core().send_on(egress, pkt);
            }
        }
        sim
    };
    let run = run_sharded_with(
        2,
        1,
        None,
        ShardHooks::default(),
        build,
        |rank, sim: &mut Simulator<u64>| {
            assert_wheel_served(&format!("partition {rank}"), sim);
            sim.events_processed()
        },
    );
    assert_eq!(run.cross_messages, (HOPS + 1) * BURST);
    // Per crossing: serialization, delivery to the portal, arrival at the peer.
    let events: u64 = run.results.iter().sum();
    assert_eq!(events, 2 * TIMERS + 3 * run.cross_messages);
}

#[test]
fn run_until_per_arrival_keeps_the_cursor_behind_the_clock() {
    // An open-loop driver: run to the next arrival, start its flows there
    // (a page load: a hundred at once). Each flow is a two-packet exchange
    // over a 200 µs path and leaves a 1 s timer behind, so once the near
    // events of an arrival drain the queue head is a bucket full of far
    // timers.
    let mut sim: Simulator<u64> = Simulator::new(1);
    let a = sim.add_node(Box::new(Bouncer { egress: LinkId(0) }));
    let b = sim.add_node(Box::new(Bouncer { egress: LinkId(1) }));
    let delay = SimDuration::from_micros(200);
    let ab = sim.add_link(LinkSpec::drop_tail(
        a,
        b,
        Rate::from_gbps(1),
        delay,
        1 << 20,
    ));
    sim.add_link(LinkSpec::drop_tail(
        b,
        a,
        Rate::from_gbps(1),
        delay,
        1 << 20,
    ));
    const ARRIVALS: u64 = 100;
    const FLOWS: u64 = 100;
    for i in 0..ARRIVALS {
        sim.run_until(SimTime::from_nanos(i * 5_000_000));
        for flow in i * FLOWS..(i + 1) * FLOWS {
            sim.core().set_timer(a, FAR_TIMER, flow);
            sim.core()
                .send_on(ab, Packet::new(FlowId(flow), a, b, 1000, 1));
        }
    }
    sim.run_to_completion(10 * ARRIVALS * FLOWS);
    assert_eq!(sim.events_processed(), 5 * ARRIVALS * FLOWS);
    assert_wheel_served("driver loop", &sim);
}

/// One end of a window-limited transfer. The sending end keeps `cwnd`
/// packets out, opens the window as ACKs come back, and restarts its RTO on
/// every one of them; when the RTO fires it writes off what is outstanding,
/// halves the window and starts again. The other end returns each packet
/// as an ACK.
struct Endpoint {
    egress: LinkId,
    peer: NodeId,
    /// Packets still to be acknowledged; zero on the receiving end.
    remaining: u64,
    cwnd: u64,
    in_flight: u64,
    rto: Option<TimerId>,
    restarts: u64,
    timeouts: u64,
}

const ACK: u64 = 0;
const DATA: u64 = 1;
const RTO: SimDuration = SimDuration::from_millis(300);

impl Endpoint {
    fn fill_window(&mut self, ctx: &mut Ctx<'_, u64>) {
        while self.in_flight < self.cwnd.min(self.remaining) {
            self.in_flight += 1;
            let pkt = Packet::new(FlowId(0), ctx.node_id(), self.peer, 1500, DATA);
            ctx.send(self.egress, pkt);
        }
    }
}

impl Node<u64> for Endpoint {
    fn on_packet(&mut self, pkt: Packet<u64>, ctx: &mut Ctx<'_, u64>) {
        if pkt.payload == DATA {
            ctx.send(
                self.egress,
                Packet::new(pkt.flow, pkt.dst, pkt.src, 40, ACK),
            );
            return;
        }
        if self.remaining == 0 {
            return;
        }
        self.remaining -= 1;
        self.in_flight = self.in_flight.saturating_sub(1);
        self.cwnd += 1;
        if let Some(id) = self.rto.take() {
            ctx.cancel_timer(id);
        }
        if self.remaining > 0 {
            self.rto = Some(ctx.set_timer(RTO, 0));
            self.restarts += 1;
            self.fill_window(ctx);
        }
    }
    fn on_timer(&mut self, _id: TimerId, _token: u64, ctx: &mut Ctx<'_, u64>) {
        self.timeouts += 1;
        self.in_flight = 0;
        self.cwnd = (self.cwnd / 2).max(2);
        self.rto = Some(ctx.set_timer(RTO, 0));
        self.fill_window(ctx);
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[test]
fn rto_restarts_on_a_congested_dumbbell_leave_no_dead_entries() {
    // Twelve transfers through the paper's 15 Mbps bottleneck with windows
    // that only grow between timeouts: the buffer overflows, tails are
    // lost, RTOs fire, and in between every ACK restarts one.
    const PAIRS: usize = 12;
    const PACKETS: u64 = 3_000;
    let mut sim: Simulator<u64> = Simulator::new(5);
    let net = build_dumbbell(&mut sim, &DumbbellSpec::emulab(PAIRS), |_, side| {
        Box::new(Endpoint {
            egress: LinkId(0),
            peer: NodeId(0),
            remaining: if side == Side::Left { PACKETS } else { 0 },
            cwnd: 2,
            in_flight: 0,
            rto: None,
            restarts: 0,
            timeouts: 0,
        })
    });
    let ends = |hosts: &[NodeId], egress: &[LinkId], peers: &[NodeId]| {
        hosts
            .iter()
            .zip(egress)
            .zip(peers)
            .map(|((&h, &e), &p)| (h, e, p))
            .collect::<Vec<_>>()
    };
    let left = ends(&net.left_hosts, &net.left_egress, &net.right_hosts);
    let right = ends(&net.right_hosts, &net.right_egress, &net.left_hosts);
    for &(host, egress, peer) in left.iter().chain(&right) {
        let end = sim.node_as_mut::<Endpoint>(host).unwrap();
        (end.egress, end.peer) = (egress, peer);
    }
    for &(host, ..) in &left {
        // The first "timeout" opens the transfer.
        sim.core().set_timer(host, SimDuration::ZERO, 0);
    }
    sim.run_to_completion(50_000_000);

    let senders = || {
        net.left_hosts
            .iter()
            .map(|&h| sim.node_as::<Endpoint>(h).unwrap())
    };
    assert!(senders().all(|s| s.remaining == 0), "a transfer stalled");
    let restarts: u64 = senders().map(|s| s.restarts).sum();
    let timeouts: u64 = senders().map(|s| s.timeouts).sum();
    let drops = sim.queue_stats(net.bottleneck_lr).dropped;
    assert!(
        restarts > 30_000 && drops > 100,
        "{restarts} restarts, {drops} drops"
    );
    assert!(
        timeouts > 2 * PAIRS as u64,
        "only {timeouts} timeouts: not congested"
    );
    // One entry per restart would be `restarts` dead pops, 6 % of the run.
    let (dead, events) = (sim.dead_timer_pops(), sim.events_processed());
    assert!(
        restarts * 100 > 5 * events,
        "{restarts} restarts in {events} events"
    );
    assert!(
        dead * 100 < events,
        "{dead} of {events} events were timer entries with nothing to do"
    );
}
