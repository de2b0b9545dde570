//! The event wheel's cursor must stay behind the clock.
//!
//! The queue's inbox heap exists for pushes into the one bucket being
//! consumed; everything else belongs in the wheel. If the cursor ever gets
//! ahead of the clock — it used to, whenever a driver looked at the queue
//! head across an idle gap with a far timer pending — every later push lands
//! behind it and the whole run is served from the heap: same firing order,
//! same outputs, three times the cost per event, and no test notices. These
//! two shapes are the ones that did it: windows of a sharded run and a
//! run-until-per-arrival driver, each with a 1 s timer pending while dense
//! short-lived traffic passes. [`Simulator::inbox_pops`] must stay under 5 %
//! of the events fired (it was 99.9 % and 72 %).

use netsim::link::LinkSpec;
use netsim::shard::{run_sharded, ShardHandle};
use netsim::time::{Rate, SimDuration, SimTime};
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
    let (inbox, events) = (sim.inbox_pops(), sim.events_processed());
    assert!(
        inbox * 20 < events,
        "{what}: {inbox} of {events} events came from the inbox heap"
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
    let run = run_sharded(2, 1, None, build, |rank, sim: &mut Simulator<u64>| {
        assert_wheel_served(&format!("partition {rank}"), sim);
        sim.events_processed()
    });
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
