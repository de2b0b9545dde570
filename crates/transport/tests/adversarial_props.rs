//! Adversarial property tests for the ACK-path data structures: the
//! fault-injection layer can duplicate, reorder, and overlap ACK/SACK
//! information arbitrarily, so [`RangeSet`] and [`Scoreboard`] must be
//! insensitive to delivery order and redundancy. Cases are drawn from a
//! seeded [`SimRng`] so every run checks the same corpus.

use netsim::rng::SimRng;
use transport::rangeset::RangeSet;
use transport::scoreboard::Scoreboard;
use transport::wire::{AckHeader, SackBlocks, SegId, MSS};

const SEGS: u32 = 32;

fn shuffle<T>(items: &mut [T], rng: &mut SimRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.index(i + 1));
    }
}

fn random_ranges(rng: &mut SimRng, n: usize, max_start: u32, max_len: u32) -> Vec<(u32, u32)> {
    (0..n)
        .map(|_| {
            let s = rng.index(max_start as usize) as u32;
            (s, s + 1 + rng.index(max_len as usize) as u32)
        })
        .collect()
}

/// Insertion is a set union: duplicating every op and applying the stream
/// in a random order yields exactly the same set, still coalesced.
#[test]
fn rangeset_insensitive_to_duplication_and_order() {
    let mut rng = SimRng::new(0xAD5E7);
    for case in 0..256 {
        let n_ops = 1 + rng.index(30);
        let ops = random_ranges(&mut rng, n_ops, 150, 12);

        let mut in_order = RangeSet::new();
        for &(s, e) in &ops {
            in_order.insert_range(s, e);
        }

        // Each op twice, shuffled.
        let mut doubled: Vec<(u32, u32)> = ops.iter().chain(ops.iter()).copied().collect();
        shuffle(&mut doubled, &mut rng);
        let mut scrambled = RangeSet::new();
        for &(s, e) in &doubled {
            scrambled.insert_range(s, e);
        }

        assert_eq!(in_order, scrambled, "case {case} ops {ops:?}");
        assert_eq!(in_order.len(), scrambled.len(), "case {case}");
        // Replaying any op adds nothing.
        for &(s, e) in &ops {
            assert_eq!(
                scrambled.insert_range(s, e),
                0,
                "case {case}: duplicate insert [{s}, {e}) added values"
            );
        }
        // Still disjoint, sorted, coalesced.
        let ranges: Vec<_> = scrambled.iter_ranges().collect();
        for w in ranges.windows(2) {
            assert!(w[0].1 < w[1].0, "case {case}: not coalesced: {ranges:?}");
        }
    }
}

fn ack(cum: SegId, ranges: &[(SegId, SegId)]) -> AckHeader {
    AckHeader {
        cum,
        sack: SackBlocks::from_ranges(ranges),
        for_seg: cum.min(SEGS - 1),
        echo_tx_time: netsim::SimTime::ZERO,
        window: 141_000,
    }
}

/// Observable acknowledgement state of a scoreboard (the parts that must
/// not depend on ACK delivery order or duplication).
fn coverage_fingerprint(b: &Scoreboard) -> (SegId, Vec<bool>, u64, bool) {
    (
        b.cum_ack(),
        (0..SEGS).map(|s| b.is_covered(s)).collect(),
        b.acked_bytes(),
        b.complete(),
    )
}

/// A duplicated ACK (network duplication or a fault-layer copy) must be a
/// no-op: same coverage, same pipe, flagged as a duplicate.
#[test]
fn scoreboard_duplicate_acks_are_noops() {
    let mut rng = SimRng::new(0xD0_D0);
    for case in 0..256 {
        let mut b = Scoreboard::new(SEGS as u64 * MSS as u64, SEGS, false);
        for s in 0..SEGS {
            b.on_transmit(s);
        }
        // A few warm-up ACKs to land in a random state.
        let mut cum = 0u32;
        for _ in 0..rng.index(6) {
            cum = cum.max(rng.index(SEGS as usize) as u32);
            let n_sacks = rng.index(3);
            let sacks = random_ranges(&mut rng, n_sacks, SEGS - 1, 6)
                .into_iter()
                .map(|(s, e)| (s, e.min(SEGS)))
                .filter(|(s, e)| s < e)
                .collect::<Vec<_>>();
            b.on_ack(&ack(cum, &sacks));
        }
        let n_sacks = 1 + rng.index(2);
        let sacks = random_ranges(&mut rng, n_sacks, SEGS - 1, 6)
            .into_iter()
            .map(|(s, e)| (s, e.min(SEGS)))
            .filter(|(s, e)| s < e)
            .collect::<Vec<_>>();
        let the_ack = ack(cum.max(rng.index(SEGS as usize) as u32), &sacks);
        b.on_ack(&the_ack);

        let before = coverage_fingerprint(&b);
        let pipe = b.pipe_bytes();
        let out = b.on_ack(&the_ack);
        assert!(
            out.is_duplicate,
            "case {case}: exact replay not flagged as duplicate"
        );
        assert!(!out.cum_advanced, "case {case}");
        assert_eq!(out.newly_acked_bytes, 0, "case {case}");
        assert_eq!(coverage_fingerprint(&b), before, "case {case}");
        assert_eq!(b.pipe_bytes(), pipe, "case {case}");
    }
}

/// Reordered delivery of an ACK stream (stale cumulative points arriving
/// after fresh ones, overlapping SACK ranges in any order) converges to
/// the same coverage as in-order delivery: the cumulative point never
/// regresses and coverage is the union of everything acknowledged.
#[test]
fn scoreboard_reordered_ack_stream_converges() {
    let mut rng = SimRng::new(0x5EA50);
    for case in 0..256 {
        // Monotone "as sent by the receiver" ACK stream with random
        // (frequently overlapping) SACK blocks above the cumulative point.
        let n = 2 + rng.index(18);
        let mut cum = 0u32;
        let mut stream: Vec<AckHeader> = Vec::new();
        for _ in 0..n {
            if rng.chance(0.7) {
                cum = (cum + rng.index(4) as u32).min(SEGS);
            }
            let n_sacks = rng.index(3);
            let sacks = random_ranges(&mut rng, n_sacks, SEGS - 1, 8)
                .into_iter()
                .map(|(s, e)| (s, e.min(SEGS)))
                .filter(|(s, e)| s < e)
                .collect::<Vec<_>>();
            stream.push(ack(cum, &sacks));
        }

        let run = |acks: &[AckHeader]| {
            let mut b = Scoreboard::new(SEGS as u64 * MSS as u64, SEGS, false);
            for s in 0..SEGS {
                b.on_transmit(s);
            }
            let mut high_cum = 0u32;
            for a in acks {
                b.on_ack(a);
                high_cum = high_cum.max(a.cum);
                assert_eq!(
                    b.cum_ack(),
                    high_cum,
                    "case {case}: cumulative point must never regress"
                );
            }
            coverage_fingerprint(&b)
        };

        let in_order = run(&stream);
        let mut permuted = stream.clone();
        shuffle(&mut permuted, &mut rng);
        let reordered = run(&permuted);
        assert_eq!(
            in_order, reordered,
            "case {case}: coverage depends on ACK delivery order"
        );
    }
}
