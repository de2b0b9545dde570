//! A store-and-forward router with a static route table.

use crate::engine::Ctx;
use crate::fasthash::FastMap;
use crate::node::{Node, TimerId};
use crate::packet::{LinkId, NodeId, Packet, Payload};
use std::any::Any;

/// Routes packets by destination node id over a static table.
///
/// Forwarding is output-queued: the router names the output link
/// ([`Node::relay`]) and the engine offers the packet to it at once, in
/// place; the link's queue applies the configured discipline and buffer
/// size. Unroutable packets are delivered to the router, counted and dropped (a protocol bug
/// in a scenario shows up as a non-zero [`Router::unroutable`] count rather
/// than a panic deep inside a run).
#[derive(Debug, Default)]
pub struct Router {
    /// Probed once per forwarded packet; node ids are the scenario's own.
    routes: FastMap<NodeId, LinkId>,
    default_route: Option<LinkId>,
    unroutable: u64,
    forwarded: u64,
}

impl Router {
    /// An empty router (add routes before running).
    pub fn new() -> Self {
        Router::default()
    }

    /// Route packets destined to `dst` out of `link`.
    pub fn add_route(&mut self, dst: NodeId, link: LinkId) {
        self.routes.insert(dst, link);
    }

    /// Fallback link for destinations with no explicit route.
    pub fn set_default_route(&mut self, link: LinkId) {
        self.default_route = Some(link);
    }

    /// Packets dropped for lack of a route.
    pub fn unroutable(&self) -> u64 {
        self.unroutable
    }

    /// Packets forwarded.
    pub fn forwarded(&self) -> u64 {
        self.forwarded
    }

    fn lookup(&self, dst: NodeId) -> Option<LinkId> {
        self.routes.get(&dst).copied().or(self.default_route)
    }
}

impl<P: Payload> Node<P> for Router {
    fn relay(&mut self, pkt: &Packet<P>) -> Option<LinkId> {
        let link = self.lookup(pkt.dst)?;
        self.forwarded += 1;
        Some(link)
    }

    /// Reached only by a packet [`Router::relay`] declined, or through a
    /// wrapper that does not pass `relay` on.
    fn on_packet(&mut self, pkt: Packet<P>, ctx: &mut Ctx<'_, P>) {
        match Node::<P>::relay(self, &pkt) {
            Some(link) => ctx.forward(link, pkt),
            None => self.unroutable += 1,
        }
    }

    fn on_timer(&mut self, _id: TimerId, _token: u64, _ctx: &mut Ctx<'_, P>) {}

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Simulator;
    use crate::link::LinkSpec;
    use crate::packet::FlowId;
    use crate::time::{Rate, SimDuration};

    struct Sink(Vec<u64>);
    impl Node<u64> for Sink {
        fn on_packet(&mut self, pkt: Packet<u64>, _ctx: &mut Ctx<'_, u64>) {
            self.0.push(pkt.payload);
        }
        fn on_timer(&mut self, _id: TimerId, _t: u64, _c: &mut Ctx<'_, u64>) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn router_forwards_by_destination() {
        let mut sim: Simulator<u64> = Simulator::new(0);
        let r = sim.add_node(Box::new(Router::new()));
        let a = sim.add_node(Box::new(Sink(vec![])));
        let b = sim.add_node(Box::new(Sink(vec![])));
        let la = sim.add_link(LinkSpec::drop_tail(
            r,
            a,
            Rate::from_gbps(1),
            SimDuration::ZERO,
            10_000,
        ));
        let lb = sim.add_link(LinkSpec::drop_tail(
            r,
            b,
            Rate::from_gbps(1),
            SimDuration::ZERO,
            10_000,
        ));
        {
            let router = sim.node_as_mut::<Router>(r).unwrap();
            router.add_route(a, la);
            router.add_route(b, lb);
        }
        // Inject two packets at the router addressed to different hosts.
        let ingress = sim.add_link(LinkSpec::drop_tail(
            a,
            r,
            Rate::from_gbps(1),
            SimDuration::ZERO,
            10_000,
        ));
        sim.core()
            .send_on(ingress, Packet::new(FlowId(0), a, b, 100, 42));
        sim.core()
            .send_on(ingress, Packet::new(FlowId(0), b, a, 100, 43));
        sim.run_to_completion(100);
        assert_eq!(sim.node_as::<Sink>(b).unwrap().0, vec![42]);
        assert_eq!(sim.node_as::<Sink>(a).unwrap().0, vec![43]);
        assert_eq!(sim.node_as::<Router>(r).unwrap().forwarded(), 2);
    }

    #[test]
    fn unroutable_packets_are_counted_not_paniced() {
        let mut sim: Simulator<u64> = Simulator::new(0);
        let r = sim.add_node(Box::new(Router::new()));
        let a = sim.add_node(Box::new(Sink(vec![])));
        let ingress = sim.add_link(LinkSpec::drop_tail(
            a,
            r,
            Rate::from_gbps(1),
            SimDuration::ZERO,
            10_000,
        ));
        sim.core()
            .send_on(ingress, Packet::new(FlowId(0), a, NodeId(99), 100, 1));
        sim.run_to_completion(100);
        assert_eq!(sim.node_as::<Router>(r).unwrap().unroutable(), 1);
    }
}
