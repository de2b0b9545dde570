//! Topology builders.
//!
//! [`DumbbellSpec`] reproduces the paper's Emulab configuration (Fig. 4):
//! many hosts on 1 Gbps access links, a single 15 Mbps bottleneck with 60 ms
//! RTT and a 115 KB drop-tail buffer. [`PathSpec`] builds a two-host path
//! with one bottleneck, used for the PlanetLab-style and home-network path
//! populations.
//!
//! Builders only create routers and links; host nodes are supplied by the
//! caller (the transport layer), and the caller wires each host's egress
//! link id after construction using the ids returned here.

use crate::engine::Simulator;
use crate::faults::FaultSpec;
use crate::link::LinkSpec;
use crate::loss::LossModel;
use crate::packet::{LinkId, NodeId, Payload};
use crate::queue::{CoDel, DropTail, QueueDiscipline};
use crate::router::Router;
use crate::time::{Rate, SimDuration};

/// Which side of a dumbbell a host sits on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// Sender side (left of the bottleneck in Fig. 4).
    Left,
    /// Receiver side.
    Right,
}

/// Parameters of a dumbbell topology.
#[derive(Debug, Clone)]
pub struct DumbbellSpec {
    /// Hosts on the left (sender) side.
    pub n_left: usize,
    /// Hosts on the right (receiver) side.
    pub n_right: usize,
    /// Access link rate (paper: 1 Gbps).
    pub access_rate: Rate,
    /// One-way access link delay (kept tiny; the RTT lives on the bottleneck).
    pub access_delay: SimDuration,
    /// Access link buffer (large; access links are never the bottleneck).
    pub access_buffer: u64,
    /// Bottleneck rate (paper: 15 Mbps).
    pub bottleneck_rate: Rate,
    /// One-way bottleneck delay (paper: 30 ms each way for a 60 ms RTT).
    pub bottleneck_delay: SimDuration,
    /// Bottleneck buffer in bytes (paper default: 115 KB, the BDP).
    pub bottleneck_buffer: u64,
    /// Random loss on the bottleneck (defaults to none).
    pub bottleneck_loss: LossModel,
    /// Run CoDel AQM on the bottleneck instead of drop-tail (the §6
    /// complementarity extension; the paper's testbed is drop-tail).
    pub bottleneck_codel: bool,
}

impl DumbbellSpec {
    /// The paper's Emulab configuration (Fig. 4) with `n` host pairs.
    pub fn emulab(n: usize) -> Self {
        DumbbellSpec {
            n_left: n,
            n_right: n,
            access_rate: Rate::from_gbps(1),
            access_delay: SimDuration::from_micros(10),
            access_buffer: 10_000_000,
            bottleneck_rate: Rate::from_mbps(15),
            bottleneck_delay: SimDuration::from_millis(30),
            bottleneck_buffer: 115_000,
            bottleneck_loss: LossModel::None,
            bottleneck_codel: false,
        }
    }

    /// Same as [`DumbbellSpec::emulab`] but with a different bottleneck
    /// buffer (the Fig. 10 sweep).
    pub fn emulab_with_buffer(n: usize, buffer_bytes: u64) -> Self {
        let mut s = Self::emulab(n);
        s.bottleneck_buffer = buffer_bytes;
        s
    }

    /// Round-trip propagation time between a left and a right host.
    pub fn base_rtt(&self) -> SimDuration {
        (self.bottleneck_delay + self.access_delay * 2) * 2
    }

    /// Bandwidth-delay product of the bottleneck in bytes.
    pub fn bdp_bytes(&self) -> u64 {
        self.bottleneck_rate.bytes_in(self.base_rtt())
    }
}

/// Node and link ids of a built dumbbell.
#[derive(Debug, Clone)]
pub struct Dumbbell {
    /// Left-side host node ids (index-aligned with the factory calls).
    pub left_hosts: Vec<NodeId>,
    /// Right-side host node ids.
    pub right_hosts: Vec<NodeId>,
    /// Left router.
    pub left_router: NodeId,
    /// Right router.
    pub right_router: NodeId,
    /// Bottleneck link left -> right (data direction in the experiments).
    pub bottleneck_lr: LinkId,
    /// Bottleneck link right -> left (mostly ACKs).
    pub bottleneck_rl: LinkId,
    /// Egress (host -> router) link for every left host.
    pub left_egress: Vec<LinkId>,
    /// Egress (host -> router) link for every right host.
    pub right_egress: Vec<LinkId>,
}

/// Build a dumbbell. `make_host(i, side)` supplies each host node.
pub fn build_dumbbell<P, F>(
    sim: &mut Simulator<P>,
    spec: &DumbbellSpec,
    mut make_host: F,
) -> Dumbbell
where
    P: Payload,
    F: FnMut(usize, Side) -> Box<dyn crate::node::Node<P>>,
{
    let left_router = sim.add_node(Box::new(Router::new()));
    let right_router = sim.add_node(Box::new(Router::new()));

    let mut left_hosts = Vec::with_capacity(spec.n_left);
    let mut right_hosts = Vec::with_capacity(spec.n_right);
    let mut left_egress = Vec::with_capacity(spec.n_left);
    let mut right_egress = Vec::with_capacity(spec.n_right);

    for i in 0..spec.n_left {
        left_hosts.push(sim.add_node(make_host(i, Side::Left)));
    }
    for i in 0..spec.n_right {
        right_hosts.push(sim.add_node(make_host(i, Side::Right)));
    }

    // Bottleneck links, both directions. ACK-direction gets the same buffer;
    // it essentially never fills in these workloads.
    let make_queue = |spec: &DumbbellSpec| -> Box<dyn QueueDiscipline> {
        if spec.bottleneck_codel {
            Box::new(CoDel::new(spec.bottleneck_buffer))
        } else {
            Box::new(DropTail::new(spec.bottleneck_buffer))
        }
    };
    let bottleneck_lr = sim.add_link(LinkSpec {
        src: left_router,
        dst: right_router,
        rate: spec.bottleneck_rate,
        delay: spec.bottleneck_delay,
        queue: make_queue(spec),
        loss: spec.bottleneck_loss.clone(),
    });
    let bottleneck_rl = sim.add_link(LinkSpec {
        src: right_router,
        dst: left_router,
        rate: spec.bottleneck_rate,
        delay: spec.bottleneck_delay,
        queue: make_queue(spec),
        loss: spec.bottleneck_loss.clone(),
    });

    // Access links and routes.
    for &h in &left_hosts {
        let up = sim.add_link(LinkSpec::drop_tail(
            h,
            left_router,
            spec.access_rate,
            spec.access_delay,
            spec.access_buffer,
        ));
        let down = sim.add_link(LinkSpec::drop_tail(
            left_router,
            h,
            spec.access_rate,
            spec.access_delay,
            spec.access_buffer,
        ));
        left_egress.push(up);
        let r = sim.node_as_mut::<Router>(left_router).expect("left router");
        r.add_route(h, down);
    }
    for &h in &right_hosts {
        let up = sim.add_link(LinkSpec::drop_tail(
            h,
            right_router,
            spec.access_rate,
            spec.access_delay,
            spec.access_buffer,
        ));
        let down = sim.add_link(LinkSpec::drop_tail(
            right_router,
            h,
            spec.access_rate,
            spec.access_delay,
            spec.access_buffer,
        ));
        right_egress.push(up);
        let r = sim
            .node_as_mut::<Router>(right_router)
            .expect("right router");
        r.add_route(h, down);
    }

    // Cross-bottleneck default routes.
    sim.node_as_mut::<Router>(left_router)
        .unwrap()
        .set_default_route(bottleneck_lr);
    sim.node_as_mut::<Router>(right_router)
        .unwrap()
        .set_default_route(bottleneck_rl);

    Dumbbell {
        left_hosts,
        right_hosts,
        left_router,
        right_router,
        bottleneck_lr,
        bottleneck_rl,
        left_egress,
        right_egress,
    }
}

/// One hop's cross-traffic endpoints in a [`ParkingLot`]:
/// (senders, receivers, sender egress links, receiver egress links).
pub type CrossHop = (Vec<NodeId>, Vec<NodeId>, Vec<LinkId>, Vec<LinkId>);

/// Parameters of a parking-lot topology: `hops` bottleneck links in a row
/// with one router between each pair. "Through" traffic crosses every hop;
/// per-hop cross traffic enters at hop `i` and exits at hop `i+1`. This is
/// the "more complex topologies" extension the paper leaves as future work
/// (§7).
#[derive(Debug, Clone)]
pub struct ParkingLotSpec {
    /// Number of bottleneck hops (>= 2 for a multi-bottleneck path).
    pub hops: usize,
    /// Host pairs whose flows cross every hop.
    pub n_through: usize,
    /// Host pairs per hop for single-hop cross traffic.
    pub n_cross_per_hop: usize,
    /// Rate of every bottleneck hop.
    pub hop_rate: Rate,
    /// One-way propagation per hop.
    pub hop_delay: SimDuration,
    /// Drop-tail buffer per hop.
    pub hop_buffer: u64,
    /// Access link rate.
    pub access_rate: Rate,
}

impl ParkingLotSpec {
    /// One-way delay of every access link.
    pub const ACCESS_DELAY: SimDuration = SimDuration::from_micros(10);

    /// A 3-hop parking lot scaled like the Emulab dumbbell (each hop
    /// 15 Mbps / 20 ms, 115 KB buffers).
    pub fn emulab_like(hops: usize) -> Self {
        assert!(hops >= 2, "a parking lot needs at least two hops");
        ParkingLotSpec {
            hops,
            n_through: 4,
            n_cross_per_hop: 4,
            hop_rate: Rate::from_mbps(15),
            hop_delay: SimDuration::from_millis(10),
            hop_buffer: 115_000,
            access_rate: Rate::from_gbps(1),
        }
    }
}

/// Ids of a built parking lot.
#[derive(Debug, Clone)]
pub struct ParkingLot {
    /// Through-traffic senders (attached before hop 0).
    pub through_senders: Vec<NodeId>,
    /// Through-traffic receivers (attached after the last hop).
    pub through_receivers: Vec<NodeId>,
    /// Egress link of each through sender.
    pub through_egress: Vec<LinkId>,
    /// Egress link of each through receiver (for ACKs).
    pub through_receiver_egress: Vec<LinkId>,
    /// `cross[h]` = (senders, receivers, sender egress, receiver egress)
    /// for the cross traffic of hop `h`.
    pub cross: Vec<CrossHop>,
    /// The routers, one per hop boundary (hops + 1 of them).
    pub routers: Vec<NodeId>,
    /// Forward bottleneck link of each hop.
    pub hop_links: Vec<LinkId>,
}

/// Build a parking lot. `make_host()` supplies every host node.
pub fn build_parking_lot<P, F>(
    sim: &mut Simulator<P>,
    spec: &ParkingLotSpec,
    mut make_host: F,
) -> ParkingLot
where
    P: Payload,
    F: FnMut() -> Box<dyn crate::node::Node<P>>,
{
    let access_delay = ParkingLotSpec::ACCESS_DELAY;
    let access_buffer = 10_000_000;
    // Routers R0..R_hops.
    let routers: Vec<NodeId> = (0..=spec.hops)
        .map(|_| sim.add_node(Box::new(Router::new())))
        .collect();

    // Bottleneck chain, both directions.
    let mut hop_links = Vec::with_capacity(spec.hops);
    let mut hop_rev = Vec::with_capacity(spec.hops);
    for h in 0..spec.hops {
        let fwd = sim.add_link(LinkSpec::drop_tail(
            routers[h],
            routers[h + 1],
            spec.hop_rate,
            spec.hop_delay,
            spec.hop_buffer,
        ));
        let rev = sim.add_link(LinkSpec::drop_tail(
            routers[h + 1],
            routers[h],
            spec.hop_rate,
            spec.hop_delay,
            spec.hop_buffer,
        ));
        hop_links.push(fwd);
        hop_rev.push(rev);
        // Default routes: everything unknown goes "forward" from the left
        // routers and "backward" from the right ones; per-host routes are
        // added below, so defaults only matter for cross-chain traffic.
        sim.node_as_mut::<Router>(routers[h])
            .unwrap()
            .set_default_route(fwd);
        if h == spec.hops - 1 {
            sim.node_as_mut::<Router>(routers[h + 1])
                .unwrap()
                .set_default_route(rev);
        }
    }

    // Helper to attach a host to a router with explicit routes on every
    // router toward it (routes toward hosts left of a router go backward
    // over the previous hop; hosts to the right go forward over this hop).
    let attach = |sim: &mut Simulator<P>, make_host: &mut F, at: usize| -> (NodeId, LinkId) {
        let host = sim.add_node(make_host());
        let up = sim.add_link(LinkSpec::drop_tail(
            host,
            routers[at],
            spec.access_rate,
            access_delay,
            access_buffer,
        ));
        let down = sim.add_link(LinkSpec::drop_tail(
            routers[at],
            host,
            spec.access_rate,
            access_delay,
            access_buffer,
        ));
        sim.node_as_mut::<Router>(routers[at])
            .unwrap()
            .add_route(host, down);
        for r in 0..routers.len() {
            if r == at {
                continue;
            }
            let next = if r < at { hop_links[r] } else { hop_rev[r - 1] };
            sim.node_as_mut::<Router>(routers[r])
                .unwrap()
                .add_route(host, next);
        }
        (host, up)
    };

    // Through hosts: senders at R0, receivers at R_hops.
    let mut through_senders = Vec::new();
    let mut through_receivers = Vec::new();
    let mut through_egress = Vec::new();
    let mut through_receiver_egress = Vec::new();
    for _ in 0..spec.n_through {
        let (s, se) = attach(sim, &mut make_host, 0);
        let (r, re) = attach(sim, &mut make_host, spec.hops);
        through_senders.push(s);
        through_receivers.push(r);
        through_egress.push(se);
        through_receiver_egress.push(re);
    }

    // Cross traffic per hop: sender at R_h, receiver at R_{h+1}.
    let mut cross = Vec::with_capacity(spec.hops);
    for h in 0..spec.hops {
        let mut ss = Vec::new();
        let mut rs = Vec::new();
        let mut ses = Vec::new();
        let mut res = Vec::new();
        for _ in 0..spec.n_cross_per_hop {
            let (s, se) = attach(sim, &mut make_host, h);
            let (r, re) = attach(sim, &mut make_host, h + 1);
            ss.push(s);
            rs.push(r);
            ses.push(se);
            res.push(re);
        }
        cross.push((ss, rs, ses, res));
    }

    ParkingLot {
        through_senders,
        through_receivers,
        through_egress,
        through_receiver_egress,
        cross,
        routers,
        hop_links,
    }
}

/// Parameters of a single two-host path with one bottleneck (PlanetLab-style
/// and home-network experiments).
#[derive(Debug, Clone)]
pub struct PathSpec {
    /// Bottleneck rate in the data direction.
    pub rate: Rate,
    /// Reverse-direction (ACK) rate; usually generous.
    pub reverse_rate: Rate,
    /// Round-trip propagation time.
    pub rtt: SimDuration,
    /// Bottleneck buffer in bytes.
    pub buffer: u64,
    /// Random loss in the data direction.
    pub loss: LossModel,
    /// Random loss in the ACK direction.
    pub reverse_loss: LossModel,
    /// Fault-injection schedule for the data-direction link.
    pub faults: FaultSpec,
}

impl PathSpec {
    /// A clean path: no random loss, buffer of one BDP (min 8 packets).
    pub fn clean(rate: Rate, rtt: SimDuration) -> Self {
        let bdp = rate.bytes_in(rtt).max(8 * 1500);
        PathSpec {
            rate,
            reverse_rate: rate,
            rtt,
            buffer: bdp,
            loss: LossModel::None,
            reverse_loss: LossModel::None,
            faults: FaultSpec::none(),
        }
    }

    /// Replace the data-direction fault schedule.
    pub fn with_faults(mut self, faults: FaultSpec) -> Self {
        self.faults = faults;
        self
    }
}

/// Node and link ids of a built path.
#[derive(Debug, Clone, Copy)]
pub struct PathNet {
    /// The sender-side host.
    pub sender: NodeId,
    /// The receiver-side host.
    pub receiver: NodeId,
    /// Sender -> receiver bottleneck link (this is the sender's egress).
    pub forward: LinkId,
    /// Receiver -> sender link (the receiver's egress).
    pub reverse: LinkId,
}

/// Build a two-host path; hosts supplied by the caller.
pub fn build_path<P, F>(sim: &mut Simulator<P>, spec: &PathSpec, mut make_host: F) -> PathNet
where
    P: Payload,
    F: FnMut(Side) -> Box<dyn crate::node::Node<P>>,
{
    let sender = sim.add_node(make_host(Side::Left));
    let receiver = sim.add_node(make_host(Side::Right));
    let one_way = SimDuration::from_nanos(spec.rtt.as_nanos() / 2);
    let forward = sim.add_link(LinkSpec {
        src: sender,
        dst: receiver,
        rate: spec.rate,
        delay: one_way,
        queue: Box::new(DropTail::new(spec.buffer)),
        loss: spec.loss.clone(),
    });
    let reverse = sim.add_link(LinkSpec {
        src: receiver,
        dst: sender,
        rate: spec.reverse_rate,
        delay: spec.rtt - one_way,
        queue: Box::new(DropTail::new(spec.buffer.max(64 * 1500))),
        loss: spec.reverse_loss.clone(),
    });
    if !spec.faults.is_noop() {
        sim.set_link_faults(forward, spec.faults.clone());
    }
    PathNet {
        sender,
        receiver,
        forward,
        reverse,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Ctx;
    use crate::node::{Node, TimerId};
    use crate::packet::{FlowId, Packet};
    use std::any::Any;

    struct Echo {
        got: Vec<u64>,
    }
    impl Node<u64> for Echo {
        fn on_packet(&mut self, pkt: Packet<u64>, _ctx: &mut Ctx<'_, u64>) {
            self.got.push(pkt.payload);
        }
        fn on_timer(&mut self, _: TimerId, _: u64, _: &mut Ctx<'_, u64>) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn emulab_spec_matches_paper_parameters() {
        let s = DumbbellSpec::emulab(4);
        assert_eq!(s.bottleneck_rate, Rate::from_mbps(15));
        assert_eq!(s.bottleneck_buffer, 115_000);
        // RTT ~= 60 ms (plus 40 us of access propagation).
        let rtt = s.base_rtt();
        assert!(rtt >= SimDuration::from_millis(60) && rtt <= SimDuration::from_millis(61));
        // BDP at 15 Mbps x 60 ms ~= 112.5 KB; paper rounds to 115 KB.
        let bdp = s.bdp_bytes();
        assert!(bdp > 110_000 && bdp < 115_000, "bdp {bdp}");
    }

    #[test]
    fn dumbbell_delivers_end_to_end() {
        let mut sim: Simulator<u64> = Simulator::new(0);
        let spec = DumbbellSpec::emulab(2);
        let net = build_dumbbell(&mut sim, &spec, |_, _| Box::new(Echo { got: vec![] }));
        // Left host 0 sends to right host 1 through both routers.
        let pkt = Packet::new(FlowId(1), net.left_hosts[0], net.right_hosts[1], 1500, 99);
        sim.core().send_on(net.left_egress[0], pkt);
        sim.run_to_completion(100);
        assert_eq!(
            sim.node_as::<Echo>(net.right_hosts[1]).unwrap().got,
            vec![99]
        );
        // And the reverse direction.
        let pkt = Packet::new(FlowId(1), net.right_hosts[1], net.left_hosts[0], 40, 7);
        sim.core().send_on(net.right_egress[1], pkt);
        sim.run_to_completion(100);
        assert_eq!(sim.node_as::<Echo>(net.left_hosts[0]).unwrap().got, vec![7]);
    }

    #[test]
    fn dumbbell_one_way_latency_close_to_30ms() {
        let mut sim: Simulator<u64> = Simulator::new(0);
        let spec = DumbbellSpec::emulab(1);
        let net = build_dumbbell(&mut sim, &spec, |_, _| Box::new(Echo { got: vec![] }));
        let pkt = Packet::new(FlowId(1), net.left_hosts[0], net.right_hosts[0], 1500, 1);
        sim.core().send_on(net.left_egress[0], pkt);
        sim.run_to_completion(100);
        let t = sim.now().as_millis_f64();
        // 30 ms propagation + ~0.8 ms serialization at 15 Mbps + access overhead.
        assert!(t > 30.0 && t < 32.0, "one-way latency {t}ms");
    }

    #[test]
    fn parking_lot_routes_through_and_cross_traffic() {
        let mut sim: Simulator<u64> = Simulator::new(0);
        let spec = ParkingLotSpec::emulab_like(3);
        let net = build_parking_lot(&mut sim, &spec, || Box::new(Echo { got: vec![] }));
        // Through sender 0 -> through receiver 0 crosses all three hops.
        let pkt = Packet::new(
            FlowId(1),
            net.through_senders[0],
            net.through_receivers[0],
            1500,
            11,
        );
        sim.core().send_on(net.through_egress[0], pkt);
        sim.run_to_completion(1000);
        assert_eq!(
            sim.node_as::<Echo>(net.through_receivers[0]).unwrap().got,
            vec![11]
        );
        // ~3 hops of 10 ms + serialization.
        let t = sim.now().as_millis_f64();
        assert!(t > 30.0 && t < 34.0, "through latency {t}ms");

        // Reverse direction (ACK path) works too.
        let pkt = Packet::new(
            FlowId(1),
            net.through_receivers[0],
            net.through_senders[0],
            40,
            12,
        );
        sim.core().send_on(net.through_receiver_egress[0], pkt);
        sim.run_to_completion(1000);
        assert_eq!(
            sim.node_as::<Echo>(net.through_senders[0]).unwrap().got,
            vec![12]
        );

        // Cross traffic of hop 1 only crosses hop 1.
        let (ss, rs, ses, _res) = &net.cross[1];
        let t0 = sim.now().as_millis_f64();
        let pkt = Packet::new(FlowId(2), ss[0], rs[0], 1500, 13);
        sim.core().send_on(ses[0], pkt);
        sim.run_to_completion(1000);
        assert_eq!(sim.node_as::<Echo>(rs[0]).unwrap().got, vec![13]);
        let dt = sim.now().as_millis_f64() - t0;
        assert!(dt > 10.0 && dt < 12.0, "cross latency {dt}ms");
        // No router dropped anything for lack of a route.
        for &r in &net.routers {
            assert_eq!(
                sim.node_as::<crate::router::Router>(r)
                    .unwrap()
                    .unroutable(),
                0
            );
        }
    }

    #[test]
    fn path_round_trip_time_matches_spec() {
        let mut sim: Simulator<u64> = Simulator::new(0);
        let spec = PathSpec::clean(Rate::from_mbps(100), SimDuration::from_millis(80));
        let net = build_path(&mut sim, &spec, |_| Box::new(Echo { got: vec![] }));
        let pkt = Packet::new(FlowId(1), net.sender, net.receiver, 40, 1);
        sim.core().send_on(net.forward, pkt);
        sim.run_to_completion(100);
        let fwd = sim.now();
        let pkt = Packet::new(FlowId(1), net.receiver, net.sender, 40, 2);
        sim.core().send_on(net.reverse, pkt);
        sim.run_to_completion(100);
        let rtt_ms = sim.now().as_millis_f64();
        assert!(
            (80.0..80.2).contains(&rtt_ms),
            "rtt {rtt_ms}ms (fwd at {fwd})"
        );
    }
}
