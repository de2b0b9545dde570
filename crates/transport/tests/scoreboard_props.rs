//! Property-style tests of the sender scoreboard against a reference
//! model: pipe accounting, loss marking and coverage must stay consistent
//! under arbitrary interleavings of transmissions and ACKs. Cases are
//! generated from a seeded [`SimRng`] so every run checks the same corpus.

use netsim::rng::SimRng;
use transport::scoreboard::Scoreboard;
use transport::wire::{AckHeader, SackBlocks, SegId, MSS};

const SEGS: u32 = 24;

#[derive(Debug, Clone)]
enum Op {
    /// Transmit segment (modulo the flow size).
    Tx(SegId),
    /// Deliver an ACK with cumulative point and up to two SACK ranges.
    Ack(SegId, Option<(SegId, SegId)>, Option<(SegId, SegId)>),
}

fn random_op(rng: &mut SimRng) -> Op {
    if rng.chance(0.5) {
        Op::Tx(rng.index(SEGS as usize) as u32)
    } else {
        let cum = rng.index(SEGS as usize + 1) as u32;
        let sack_range = |rng: &mut SimRng| -> Option<(u32, u32)> {
            if rng.chance(0.5) {
                let s = rng.index(SEGS as usize) as u32;
                let l = 1 + rng.index(5) as u32;
                let e = (s + l).min(SEGS);
                (s < e).then_some((s, e))
            } else {
                None
            }
        };
        let a = sack_range(rng);
        let b = sack_range(rng);
        Op::Ack(cum, a, b)
    }
}

/// Reference model: per-seg delivered set implied by the ACK stream.
#[derive(Default)]
struct Model {
    covered: [bool; SEGS as usize],
    outstanding: [u32; SEGS as usize],
    cum: u32,
}

#[test]
fn scoreboard_matches_reference() {
    let mut rng = SimRng::new(0x5c0_12e);
    for case in 0..256 {
        let n_ops = 1 + rng.index(119);
        let ops: Vec<Op> = (0..n_ops).map(|_| random_op(&mut rng)).collect();
        let mut b = Scoreboard::new(SEGS as u64 * MSS as u64, SEGS, false);
        let mut m = Model::default();

        for op in &ops {
            match *op {
                Op::Tx(seg) => {
                    // Only transmit uncovered segments (like real senders).
                    if !m.covered[seg as usize] {
                        b.on_transmit(seg);
                        m.outstanding[seg as usize] += 1;
                    }
                }
                Op::Ack(cum, s1, s2) => {
                    // ACK streams never regress: clamp to the model's cum.
                    let cum = cum.max(m.cum);
                    let mut ranges = Vec::new();
                    for r in [s1, s2].into_iter().flatten() {
                        ranges.push(r);
                    }
                    let ack = AckHeader {
                        cum,
                        sack: SackBlocks::from_ranges(&ranges),
                        for_seg: cum.min(SEGS - 1),
                        echo_tx_time: netsim::SimTime::ZERO,
                        window: 141_000,
                    };
                    b.on_ack(&ack);
                    for seg in m.cum..cum.min(SEGS) {
                        m.covered[seg as usize] = true;
                        m.outstanding[seg as usize] = 0;
                    }
                    m.cum = cum.min(SEGS);
                    for (s, e) in ranges {
                        for seg in s..e {
                            m.covered[seg as usize] = true;
                            m.outstanding[seg as usize] = 0;
                        }
                    }
                }
            }

            // Invariants after every step:
            // 1. Coverage agrees with the model.
            for seg in 0..SEGS {
                assert_eq!(
                    b.is_covered(seg),
                    m.covered[seg as usize] || seg < m.cum,
                    "case {case}: coverage mismatch at {seg}"
                );
            }
            // 2. cum agrees.
            assert_eq!(b.cum_ack(), m.cum, "case {case}");
            // 3. A segment is never both covered and marked lost.
            for seg in 0..SEGS {
                assert!(
                    !(b.is_covered(seg) && b.is_lost(seg)),
                    "case {case}: covered+lost {seg}"
                );
            }
            // 4. Lost segments count no pipe; pipe is bounded by what the
            //    model thinks is outstanding.
            let model_pipe: u64 = (0..SEGS)
                .filter(|&s| !m.covered[s as usize] && s >= m.cum)
                .map(|s| m.outstanding[s as usize] as u64 * MSS as u64)
                .sum();
            assert!(
                b.pipe_bytes() <= model_pipe,
                "case {case}: pipe {} exceeds model {}",
                b.pipe_bytes(),
                model_pipe
            );
            // 5. complete() iff every segment cum-acked.
            assert_eq!(b.complete(), m.cum >= SEGS, "case {case}");
        }
    }
}

/// After an RTO, the pipe is empty and every uncovered sent segment is
/// marked lost; covered segments never are.
#[test]
fn rto_invariants() {
    let mut rng = SimRng::new(0x270);
    for case in 0..256 {
        let n_txs = 1 + rng.index(39);
        let txs: Vec<u32> = (0..n_txs)
            .map(|_| rng.index(SEGS as usize) as u32)
            .collect();
        let cum = rng.index(SEGS as usize) as u32;
        let sack_start = rng.index(SEGS as usize) as u32;
        let sack_len = 1 + rng.index(7) as u32;
        let mut b = Scoreboard::new(SEGS as u64 * MSS as u64, SEGS, false);
        for &t in &txs {
            b.on_transmit(t);
        }
        let e = (sack_start + sack_len).min(SEGS);
        let ranges = if sack_start < e {
            vec![(sack_start, e)]
        } else {
            vec![]
        };
        b.on_ack(&AckHeader {
            cum,
            sack: SackBlocks::from_ranges(&ranges),
            for_seg: 0,
            echo_tx_time: netsim::SimTime::ZERO,
            window: 141_000,
        });
        b.on_rto();
        assert_eq!(b.pipe_bytes(), 0, "case {case}");
        for seg in 0..SEGS {
            if b.is_covered(seg) {
                assert!(
                    !b.is_lost(seg),
                    "case {case}: covered segment {seg} marked lost"
                );
            } else if b.was_sent(seg) {
                assert!(
                    b.is_lost(seg),
                    "case {case}: sent uncovered segment {seg} not lost after RTO"
                );
            } else {
                assert!(
                    !b.is_lost(seg),
                    "case {case}: never-sent segment {seg} lost"
                );
            }
        }
    }
}

/// acked_bytes is monotone along any ACK stream and capped at the flow
/// size.
#[test]
fn acked_bytes_monotone() {
    let mut rng = SimRng::new(0xACED);
    for case in 0..256 {
        let n_acks = 1 + rng.index(39);
        let acks: Vec<(u32, u32, u32)> = (0..n_acks)
            .map(|_| {
                (
                    rng.index(SEGS as usize + 1) as u32,
                    rng.index(SEGS as usize) as u32,
                    1 + rng.index(5) as u32,
                )
            })
            .collect();
        let mut b = Scoreboard::new(SEGS as u64 * MSS as u64, SEGS, false);
        for s in 0..SEGS {
            b.on_transmit(s);
        }
        let mut last = 0u64;
        let mut cum_floor = 0u32;
        for &(cum, ss, sl) in &acks {
            let cum = cum.max(cum_floor);
            cum_floor = cum;
            let e = (ss + sl).min(SEGS);
            let ranges = if ss < e { vec![(ss, e)] } else { vec![] };
            b.on_ack(&AckHeader {
                cum,
                sack: SackBlocks::from_ranges(&ranges),
                for_seg: 0,
                echo_tx_time: netsim::SimTime::ZERO,
                window: 141_000,
            });
            let now = b.acked_bytes();
            assert!(
                now >= last,
                "case {case}: acked_bytes regressed: {last} -> {now}"
            );
            assert!(now <= SEGS as u64 * MSS as u64, "case {case}");
            last = now;
        }
    }
}

/// A scoreboard keeps its per-segment state inside itself up to
/// `INLINE_SEGS` segments and on the heap beyond: the two must be the same
/// scoreboard. Flows one segment either side of the boundary take the same
/// transmit/ACK/SACK stream (confined to the segments both have) and must
/// report identical outcomes; each is checkpointed half way, and the
/// restored copy must go on to the same outcomes and the same final bytes.
/// With and without naive re-marking, which adds the second per-segment
/// array.
#[test]
fn inline_and_heap_scoreboards_agree_at_the_boundary() {
    use netsim::snap::{assert_roundtrip, SnapWriter};
    use transport::scoreboard::AckOutcome;

    const N: u32 = Scoreboard::INLINE_SEGS as u32;
    let key = |o: &AckOutcome| {
        (
            o.cum_advanced,
            o.newly_acked_bytes,
            o.newly_lost.clone(),
            o.is_duplicate,
        )
    };
    let bytes = |b: &Scoreboard| {
        let mut w = SnapWriter::new();
        w.put(b);
        w.into_bytes()
    };
    let mut rng = SimRng::new(0x1A_11E);
    let mut marked_lost = 0;
    for case in 0..128 {
        let naive = case % 2 == 1;
        // Ops over segments 0..N-1, so the last segment of either flow (a
        // short one in neither: sizes are whole segments) stays untouched.
        let ops: Vec<(bool, u32, u32, u32)> = (0..200)
            .map(|_| {
                (
                    rng.chance(0.5),
                    rng.index(N as usize - 1) as u32,
                    rng.index(N as usize - 1) as u32,
                    1 + rng.index(4) as u32,
                )
            })
            .collect();
        let mut outcomes: Vec<Vec<_>> = Vec::new();
        for segs in [N, N + 1] {
            let mut live = Scoreboard::new(segs as u64 * MSS as u64, segs, naive);
            let mut restored: Option<Scoreboard> = None;
            let mut seen = Vec::new();
            let mut cum = 0u32;
            for (i, &(tx, seg, sack_start, sack_len)) in ops.iter().enumerate() {
                if i == ops.len() / 2 {
                    restored = Some(assert_roundtrip(&live));
                }
                let mut boards: Vec<&mut Scoreboard> = vec![&mut live];
                boards.extend(restored.as_mut());
                if tx {
                    if !boards[0].is_covered(seg) {
                        boards.iter_mut().for_each(|b| b.on_transmit(seg));
                    }
                    continue;
                }
                // ACK streams never regress, cover only what was sent, and
                // creep, so that holes stay open long enough to be marked.
                cum = (cum + seg % 2).min(boards[0].high_sent()).max(cum);
                let end = (sack_start + sack_len).min(N - 1);
                let ranges = if sack_start < end {
                    vec![(sack_start, end)]
                } else {
                    vec![]
                };
                let ack = AckHeader {
                    cum,
                    sack: SackBlocks::from_ranges(&ranges),
                    for_seg: cum,
                    echo_tx_time: netsim::SimTime::ZERO,
                    window: 141_000,
                };
                let got: Vec<_> = boards.iter_mut().map(|b| key(&b.on_ack(&ack))).collect();
                assert!(
                    got.iter().all(|g| *g == got[0]),
                    "case {case}, {segs} segments: the restored copy diverged at op {i}"
                );
                seen.push(got[0].clone());
            }
            let restored = restored.expect("checkpointed half way");
            assert!(
                bytes(&live) == bytes(&restored),
                "case {case}, {segs} segments: final snapshot bytes"
            );
            outcomes.push(seen);
        }
        assert!(
            outcomes[0] == outcomes[1],
            "case {case}: {N} segments inline and {} on the heap disagree",
            N + 1
        );
        marked_lost += outcomes[0].iter().filter(|o| !o.2.is_empty()).count();
    }
    assert!(
        marked_lost > 128,
        "corpus too tame: {marked_lost} loss marks"
    );
}
