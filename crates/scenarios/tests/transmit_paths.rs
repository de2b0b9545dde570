//! The engine's two transmit paths compute the same run.
//!
//! A link with no loss model and no fault spec transmits silently: a
//! packet's arrival is scheduled when its serialization starts, and the end
//! of transmission is an event only when a packet waits behind it. Every
//! other link fires a `LinkTxDone` at each end of transmission. Both rank
//! an arrival by the seq drawn when its serialization started, so the
//! choice must be invisible. `FaultSpec::none()` on a link forces the
//! `LinkTxDone` path and changes nothing else: its private RNG is forked
//! from the seed without a draw from the engine's. Every fault-free case of
//! the battery is therefore run twice, as built and with that spec on every
//! link, and the two runs must agree on the flow records, every link's and
//! queue's counters, the violations and the wire trace.

use netsim::{FaultSpec, LinkId};
use scenarios::simcheck::{generate_case, CaseReport, CaseSpec, Rig, Selection};

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
        let (silent, silent_links, silent_events) = run(&spec, false);
        let (forced, forced_links, forced_events) = run(&spec, true);
        let what = format!("case {seed}/{id}");
        assert_eq!(
            format!("{:?}", silent.records),
            format!("{:?}", forced.records),
            "{what}: flow records"
        );
        assert_eq!(silent_links, forced_links, "{what}: link and queue stats");
        assert_eq!(
            format!("{:?}", silent.violations),
            format!("{:?}", forced.violations),
            "{what}: violations"
        );
        assert!(!silent.streams.wire.is_empty(), "{what}: nothing traced");
        assert_eq!(
            silent.streams.merged_jsonl(),
            forced.streams.merged_jsonl(),
            "{what}: trace"
        );
        // The battery's ACK links are loss-free, so the paths really differ.
        assert!(
            silent_events < forced_events,
            "{what}: {silent_events} events as built, {forced_events} forced"
        );
        compared += 1;
    }
    assert!(compared * 10 > cases, "only {compared} fault-free cases");
}

#[test]
fn transmit_paths_agree_on_the_seed_42_battery() {
    assert_paths_agree(42, 200);
}

/// The battery size CI's release build runs (`--ignored`).
#[test]
#[ignore = "5,000 cases twice; run in release"]
fn transmit_paths_agree_on_the_seed_16_battery() {
    assert_paths_agree(16, 5_000);
}
