//! Integration tests of the sender chassis and host plumbing: handshake
//! retries, timer routing, the completion bus, and delivery traces.

use netsim::loss::LossModel;
use netsim::topology::{build_path, PathSpec};
use netsim::{FlowId, Rate, SimDuration};
use transport::host::completion_bus;
use transport::reno::{RenoConfig, RenoEngine};
use transport::scoreboard::AckOutcome;
use transport::sender::Ops;
use transport::strategy::Strategy;
use transport::wire::{AckHeader, SegId, SendClass};
use transport::{FlowEvent, Host, TransportSim};

/// Minimal window-driven strategy for chassis tests.
struct MiniTcp(RenoEngine);

impl MiniTcp {
    fn new() -> Self {
        MiniTcp(RenoEngine::new(RenoConfig::default()))
    }
}

impl Strategy for MiniTcp {
    fn name(&self) -> &'static str {
        "MiniTcp"
    }
    fn on_established(&mut self, ops: &mut Ops<'_, '_>) {
        self.0.on_established(ops);
    }
    fn on_ack(&mut self, ops: &mut Ops<'_, '_>, _a: &AckHeader, o: &AckOutcome) {
        self.0.on_ack(ops, o);
    }
    fn on_loss_detected(&mut self, ops: &mut Ops<'_, '_>, l: &[SegId]) {
        self.0.on_loss(ops, l);
    }
    fn on_rto(&mut self, ops: &mut Ops<'_, '_>) {
        self.0.on_rto(ops);
    }
}

fn rig(spec: &PathSpec, seed: u64) -> (TransportSim, netsim::topology::PathNet) {
    let mut sim = TransportSim::new(seed);
    let net = build_path(&mut sim, spec, |_| Box::new(Host::new()));
    sim.with_node_mut::<Host, _>(net.sender, |h, _| h.wire(net.sender, net.forward));
    sim.with_node_mut::<Host, _>(net.receiver, |h, _| h.wire(net.receiver, net.reverse));
    (sim, net)
}

#[test]
fn syn_retries_back_off_exponentially() {
    let mut spec = PathSpec::clean(Rate::from_mbps(50), SimDuration::from_millis(40));
    // Drop the first two SYNs.
    spec.loss = LossModel::DropList {
        ordinals: vec![1, 2],
    };
    let (mut sim, net) = rig(&spec, 1);
    sim.with_node_mut::<Host, _>(net.sender, |h, core| {
        h.start_flow(
            core,
            FlowId(1),
            net.receiver,
            20_000,
            Box::new(MiniTcp::new()),
        )
    });
    sim.run_to_completion(1_000_000);
    let rec = sim.node_as::<Host>(net.sender).unwrap().completed()[0].clone();
    assert_eq!(rec.counters.syn_sent, 3);
    // Two handshake timeouts: 1 s + 2 s of backoff before the third SYN.
    let fct = rec.fct.as_millis_f64();
    assert!(fct > 3000.0 && fct < 3400.0, "fct {fct}ms");
}

#[test]
fn completion_bus_receives_records_in_order() {
    let spec = PathSpec::clean(Rate::from_mbps(50), SimDuration::from_millis(20));
    let (mut sim, net) = rig(&spec, 2);
    let bus = completion_bus();
    sim.with_node_mut::<Host, _>(net.sender, |h, _| h.set_bus(bus.clone()));
    for i in 0..3u64 {
        sim.with_node_mut::<Host, _>(net.sender, |h, core| {
            h.start_flow(
                core,
                FlowId(i + 1),
                net.receiver,
                10_000 * (i + 1),
                Box::new(MiniTcp::new()),
            )
        });
    }
    sim.run_to_completion(1_000_000);
    let drained: Vec<_> = bus.borrow_mut().drain(..).collect();
    assert_eq!(drained.len(), 3);
    // Smaller flows complete first (same start, same path).
    assert!(drained[0].bytes <= drained[1].bytes);
    // Host keeps its own copy too.
    assert_eq!(
        sim.node_as::<Host>(net.sender).unwrap().completed().len(),
        3
    );
}

#[test]
fn delivery_traces_cover_the_flow() {
    let spec = PathSpec::clean(Rate::from_mbps(50), SimDuration::from_millis(20));
    let (mut sim, net) = rig(&spec, 3);
    sim.with_node_mut::<Host, _>(net.receiver, |h, _| h.enable_recorder());
    sim.with_node_mut::<Host, _>(net.sender, |h, core| {
        h.start_flow(
            core,
            FlowId(1),
            net.receiver,
            50_000,
            Box::new(MiniTcp::new()),
        )
    });
    sim.run_to_completion(1_000_000);
    let host = sim.node_as::<Host>(net.receiver).unwrap();
    let delivered = host
        .recorder()
        .expect("receiver records")
        .events()
        .filter_map(|r| match r.event {
            FlowEvent::Delivered {
                delivered_bytes, ..
            } if r.flow == FlowId(1) => Some(delivered_bytes),
            _ => None,
        })
        .max();
    assert_eq!(delivered, Some(50_000));
}

#[test]
fn receiver_handles_duplicate_syn() {
    // A retransmitted SYN must get a fresh SYN-ACK, not a second receiver.
    let mut spec = PathSpec::clean(Rate::from_mbps(50), SimDuration::from_millis(40));
    // Drop the first SYN-ACK (reverse ordinal 1), forcing a SYN retry.
    spec.reverse_loss = LossModel::DropList { ordinals: vec![1] };
    let (mut sim, net) = rig(&spec, 4);
    sim.with_node_mut::<Host, _>(net.sender, |h, core| {
        h.start_flow(
            core,
            FlowId(1),
            net.receiver,
            20_000,
            Box::new(MiniTcp::new()),
        )
    });
    sim.run_to_completion(1_000_000);
    let sender = sim.node_as::<Host>(net.sender).unwrap();
    assert_eq!(sender.completed().len(), 1);
    assert_eq!(sender.completed()[0].counters.syn_sent, 2);
    let receiver = sim.node_as::<Host>(net.receiver).unwrap();
    assert_eq!(
        receiver.receivers().count(),
        1,
        "duplicate SYN must not duplicate state"
    );
    assert_eq!(receiver.stray_packets, 0);
}

#[test]
fn stray_data_is_counted_not_fatal() {
    let spec = PathSpec::clean(Rate::from_mbps(50), SimDuration::from_millis(10));
    let (mut sim, net) = rig(&spec, 5);
    // Inject a data packet for a flow the receiver never saw a SYN for.
    let pkt = netsim::Packet::new(
        FlowId(99),
        net.sender,
        net.receiver,
        1500,
        transport::Header::Data(transport::wire::DataHeader {
            seg: 0,
            class: SendClass::New,
        }),
    );
    sim.core().send_on(net.forward, pkt);
    sim.run_to_completion(100);
    assert_eq!(sim.node_as::<Host>(net.receiver).unwrap().stray_packets, 1);
}

#[test]
fn late_acks_after_completion_are_ignored() {
    // Proactive duplicates keep generating ACKs after the flow completes;
    // the sender endpoint is gone and the host must shrug them off.
    let spec = PathSpec::clean(Rate::from_mbps(50), SimDuration::from_millis(40));
    let (mut sim, net) = rig(&spec, 6);
    sim.with_node_mut::<Host, _>(net.sender, |h, core| {
        h.start_flow(
            core,
            FlowId(1),
            net.receiver,
            30_000,
            Box::new(baselines_proactive()),
        )
    });
    sim.run_to_completion(1_000_000);
    let host = sim.node_as::<Host>(net.sender).unwrap();
    assert_eq!(host.completed().len(), 1);
    assert_eq!(host.active_senders(), 0);
}

fn baselines_proactive() -> baselines::ProactiveTcp {
    baselines::ProactiveTcp::new()
}

#[test]
fn no_timer_leak_under_heavy_loss() {
    // Regression test: each RTO used to leak a live timer (the chassis
    // re-arm overwrote the slot the strategy's retransmission had armed),
    // doubling the timer population per timeout. Under sustained loss this
    // exploded exponentially. After a lossy run, the number of live timers
    // must be bounded by a small constant per active flow.
    let mut spec = PathSpec::clean(Rate::from_mbps(5), SimDuration::from_millis(40));
    spec.loss = LossModel::Bernoulli { p: 0.3 };
    let (mut sim, net) = rig(&spec, 9);
    for i in 0..4u64 {
        sim.with_node_mut::<Host, _>(net.sender, |h, core| {
            h.start_flow(
                core,
                FlowId(i + 1),
                net.receiver,
                200_000,
                Box::new(MiniTcp::new()),
            )
        });
    }
    // Run for 30 virtual seconds (plenty of RTO cycles at 30% loss).
    sim.run_until(netsim::SimTime::ZERO + SimDuration::from_secs(30));
    let live = sim.core().live_timer_count();
    let active = sim.node_as::<Host>(net.sender).unwrap().active_senders();
    assert!(
        live <= active * 3 + 2,
        "timer leak: {live} live timers for {active} active flows"
    );
    // And the flows do eventually finish.
    sim.run_to_completion(50_000_000);
    assert_eq!(
        sim.node_as::<Host>(net.sender).unwrap().completed().len(),
        4
    );
}

#[test]
fn late_retransmit_for_a_reaped_flow_is_stray() {
    // Connections live in slots that are reused, found through a flow-id
    // index. A reaped receiver's slot goes to the next flow; a retransmit
    // of the reaped flow that is still in the network must find no
    // receiver, not the new tenant of its slot.
    let spec = PathSpec::clean(Rate::from_mbps(50), SimDuration::from_millis(20));
    let (mut sim, net) = rig(&spec, 7);
    let start = |sim: &mut TransportSim, flow: u64| {
        sim.with_node_mut::<Host, _>(net.sender, |h, core| {
            h.start_flow(
                core,
                FlowId(flow),
                net.receiver,
                30_000,
                Box::new(MiniTcp::new()),
            )
        });
    };
    start(&mut sim, 1);
    sim.run_to_completion(1_000_000);
    let reaped = sim
        .with_node_mut::<Host, _>(net.receiver, |h, core| h.reap_receivers(core.now()))
        .unwrap();
    assert_eq!(reaped, 1);

    // Flow 2 is mid-transfer, in the slot flow 1 left, when a copy of flow
    // 1's first segment turns up.
    start(&mut sim, 2);
    let mid = sim.now() + SimDuration::from_millis(70);
    sim.run_until(mid);
    let host = sim.node_as::<Host>(net.receiver).unwrap();
    assert!(host.receiver(FlowId(1)).is_none());
    assert_eq!(host.receivers().count(), 1);
    let before = host.receiver(FlowId(2)).expect("flow 2 is up").data_packets;
    assert!(before > 0);
    let late = netsim::Packet::new(
        FlowId(1),
        net.sender,
        net.receiver,
        1500,
        transport::Header::Data(transport::wire::DataHeader {
            seg: 0,
            class: SendClass::RtoRetx,
        }),
    );
    sim.core().send_on(net.forward, late);
    sim.run_to_completion(1_000_000);

    let host = sim.node_as::<Host>(net.receiver).unwrap();
    assert_eq!(host.stray_packets, 1);
    let conn = host.receiver(FlowId(2)).unwrap();
    assert_eq!((conn.delivered_bytes, conn.dup_segments), (30_000, 0));
    let sent = &sim.node_as::<Host>(net.sender).unwrap().completed()[1];
    assert_eq!(conn.data_packets, sent.counters.data_packets_sent);
}
