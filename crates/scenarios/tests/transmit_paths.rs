//! Every link decides a packet's fate when its serialization starts, and
//! only a link with a loss model or a fault spec has anything to decide.
//!
//! A do-nothing `FaultSpec::none()` sends a loss-free link's packets through
//! the deciding branch and changes nothing else: its private RNG is forked
//! from the seed without a draw from the engine's. Every fault-free case of
//! the battery is therefore run twice, as built and with that spec on every
//! link, and the two runs must agree on the flow records, every link's and
//! queue's counters, the violations, the wire trace and the events popped.
//!
//! Wire loss draws from the engine's RNG, and nothing else does. On a case
//! with exactly one lossy hop the k-th packet to start serializing on that
//! hop therefore meets the engine stream's k-th loss draw, whatever else
//! the run does: its `WireDrop` ordinals must equal a replay of the loss
//! process over a fresh stream seeded like the engine.

use netsim::engine::TraceEvent;
use netsim::loss::LossProcess;
use netsim::rng::SimRng;
use netsim::{FaultSpec, LinkId};
use scenarios::simcheck::{generate_case, CaseReport, CaseSpec, Rig, Selection, Topology};

/// What one run of a case shows: its report, wire trace included, every
/// link's `(LinkStats, QueueStats)`, and the events it popped.
fn run(spec: &CaseSpec, forced: bool) -> (CaseReport, String, u64) {
    let sel = Selection::full(spec);
    let mut rig = Rig::new(spec, &sel, true);
    let links = (0..rig.sim.link_count()).map(|l| LinkId(l as u32));
    if forced {
        for l in links.clone() {
            rig.sim.set_link_faults(l, FaultSpec::none());
        }
    }
    rig.play();
    let report = rig.finish();
    let stats: Vec<_> = links
        .map(|l| (rig.sim.link_stats(l), rig.sim.queue_stats(l)))
        .collect();
    (report, format!("{stats:?}"), rig.sim.events_processed())
}

/// Run the fault-free cases (about a quarter) among `cases` of the battery
/// `seed` both ways.
fn assert_paths_agree(seed: u64, cases: u64) {
    let mut compared = 0;
    for id in 0..cases {
        let spec = generate_case(seed, id);
        if !spec.faults.is_empty() {
            continue;
        }
        let (built, built_links, built_events) = run(&spec, false);
        let (forced, forced_links, forced_events) = run(&spec, true);
        let what = format!("case {seed}/{id}");
        assert_eq!(
            format!("{:?}", built.records),
            format!("{:?}", forced.records),
            "{what}: flow records"
        );
        assert_eq!(built_links, forced_links, "{what}: link and queue stats");
        assert_eq!(
            format!("{:?}", built.violations),
            format!("{:?}", forced.violations),
            "{what}: violations"
        );
        assert!(!built.streams.wire.is_empty(), "{what}: nothing traced");
        assert_eq!(
            built.streams.merged_jsonl(),
            forced.streams.merged_jsonl(),
            "{what}: trace"
        );
        assert_eq!(built_events, forced_events, "{what}: events popped");
        compared += 1;
    }
    assert!(compared * 10 > cases, "only {compared} fault-free cases");
}

/// Check the loss order on every case among `cases` of the battery `seed`
/// with exactly one lossy hop.
fn assert_loss_is_drawn_in_transmission_order(seed: u64, cases: u64) {
    let (mut checked, mut drops) = (0, 0);
    for id in 0..cases {
        let spec = generate_case(seed, id);
        let Topology::Chain(hops) = &spec.topology else {
            unreachable!("battery cases are chains")
        };
        let mut lossy = hops.iter().enumerate().filter(|(_, h)| !h.loss.is_none());
        let (Some((hop, h)), None) = (lossy.next(), lossy.next()) else {
            continue;
        };
        let what = format!("case {seed}/{id}");
        let (report, _, _) = run(&spec, false);
        let sent = report.bottlenecks[hop].tx_packets;
        let mut loss = LossProcess::new(h.loss.clone());
        let mut rng = SimRng::new(spec.engine_seed);
        let want: Vec<u64> = (1..=sent).filter(|_| loss.should_drop(&mut rng)).collect();
        // The lossy hop's link is the one every wire drop names; a drop is
        // reported where its packet starts serializing.
        let wire = &report.streams.wire;
        let link = wire.iter().find_map(|(_, ev)| match ev {
            TraceEvent::WireDrop { link, .. } => Some(*link),
            _ => None,
        });
        let (mut started, mut last, mut got) = (0, None, Vec::new());
        for (_, ev) in wire {
            match *ev {
                TraceEvent::TxStart {
                    link: l, packet, ..
                } if Some(l) == link => {
                    started += 1;
                    last = Some(packet);
                }
                TraceEvent::WireDrop {
                    link: l, packet, ..
                } => {
                    assert_eq!(Some(l), link, "{what}: drops on two links");
                    assert_eq!(last, Some(packet), "{what}: drop apart from its start");
                    got.push(started);
                }
                _ => {}
            }
        }
        if link.is_some() {
            assert_eq!(started, sent, "{what}: transmissions on the lossy hop");
        }
        assert_eq!(got, want, "{what}: wire-drop ordinals on hop {hop}");
        checked += 1;
        drops += got.len();
    }
    assert!(
        checked * 5 > cases && drops > 0,
        "only {checked} one-lossy-hop cases, {drops} drops"
    );
}

#[test]
fn transmit_paths_agree_on_the_seed_42_battery() {
    assert_paths_agree(42, 200);
}

#[test]
fn wire_loss_is_drawn_in_transmission_order_on_the_seed_42_battery() {
    assert_loss_is_drawn_in_transmission_order(42, 200);
}

/// The battery size CI's release build runs (`--ignored`).
#[test]
#[ignore = "5,000 cases twice; run in release"]
fn transmit_paths_agree_on_the_seed_16_battery() {
    assert_paths_agree(16, 5_000);
}

/// The battery size CI's release build runs (`--ignored`).
#[test]
#[ignore = "5,000 cases; run in release"]
fn wire_loss_is_drawn_in_transmission_order_on_the_seed_16_battery() {
    assert_loss_is_drawn_in_transmission_order(16, 5_000);
}
