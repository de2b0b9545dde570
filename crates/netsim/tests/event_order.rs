//! Randomized equivalence test for the calendar-queue event engine.
//!
//! The reference model is the contract the old `BinaryHeap` engine
//! satisfied and the goldens depend on: timers fire in ascending
//! `(at, scheduling order)`, cancellations suppress dispatch, and a timer
//! scheduled *before* an already-inspected queue head — or at a clock that
//! `run_until` clamped into an idle gap — still fires in its correct global
//! position. The test drives identical seeded workloads — schedule / cancel
//! / step / peek / run-until interleavings across every bucket and horizon
//! boundary — through the real engine and through a sorted list, and
//! demands identical firing sequences.

use netsim::time::SimTime;
use netsim::{Ctx, Node, Packet, Simulator, TimerId};
use std::any::Any;

#[derive(Default)]
struct Recorder {
    fired: Vec<(u64, u64)>,
}

impl Node<u32> for Recorder {
    fn on_packet(&mut self, _p: Packet<u32>, _c: &mut Ctx<'_, u32>) {}
    fn on_timer(&mut self, _id: TimerId, token: u64, c: &mut Ctx<'_, u32>) {
        self.fired.push((c.now().as_nanos(), token));
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

struct ModelEntry {
    at: u64,
    /// Scheduling order; the engine's tiebreaker for equal `at`.
    ord: u64,
    token: u64,
    cancelled: bool,
}

fn lcg(x: &mut u64) -> u64 {
    *x = x
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *x >> 11
}

/// Deltas chosen to land everywhere interesting relative to the wheel
/// geometry: same bucket, neighbouring buckets, mid-window, past the L1
/// segment (~134 ms, so the L2 wheel parks it), many segments out, and —
/// the last two — past the whole L2 span (~9.2 min), which exercises the
/// overflow heap and the cascade that refills L2 from it. With batch
/// drains these also interleave run consumption with pushes into every
/// tier, so a bucket sorted once per refill must still merge correctly
/// against inbox entries that arrive mid-run.
const DELTAS: [u64; 10] = [
    0,
    1,
    40_000,
    200_000,
    5_000_000,
    300_000_000,
    700_000_000,
    3_000_000_000,
    600_000_000_000,
    3_000_000_000_000,
];

/// `prefill` timers are scheduled before the first op: the queue is a plain
/// heap below 1024 pending entries, so only a prefilled run keeps the mix on
/// the wheels.
fn run_workload(seed: u64, ops: usize, prefill: usize) {
    let mut sim: Simulator<u32> = Simulator::new(1);
    let node = sim.add_node(Box::new(Recorder::default()));
    let mut rng = seed;
    let mut model: Vec<ModelEntry> = Vec::new();
    let mut live: Vec<(TimerId, usize)> = Vec::new(); // (id, model index)
    let mut next_token = 0u64;

    for i in 0..ops + prefill {
        let op = if i < prefill { 0 } else { lcg(&mut rng) % 11 };
        match op {
            // Schedule (the bulk of the mix).
            0..=4 => {
                let d =
                    DELTAS[(lcg(&mut rng) % DELTAS.len() as u64) as usize] + lcg(&mut rng) % 977;
                let at = sim.now().as_nanos() + d;
                let id = sim
                    .core()
                    .set_timer_at(node, SimTime::from_nanos(at), next_token);
                model.push(ModelEntry {
                    at,
                    ord: next_token,
                    token: next_token,
                    cancelled: false,
                });
                live.push((id, model.len() - 1));
                next_token += 1;
            }
            // Peek, then schedule at/before the observed head: a new
            // earlier event is pushed after the queue head has been
            // inspected.
            5 => {
                let Some(head) = sim.next_event_time() else {
                    continue;
                };
                let now = sim.now().as_nanos();
                let span = head.as_nanos() - now;
                let at = now + if span == 0 { 0 } else { lcg(&mut rng) % span };
                let id = sim
                    .core()
                    .set_timer_at(node, SimTime::from_nanos(at), next_token);
                model.push(ModelEntry {
                    at,
                    ord: next_token,
                    token: next_token,
                    cancelled: false,
                });
                live.push((id, model.len() - 1));
                next_token += 1;
            }
            // Cancel a random live timer.
            6 => {
                if live.is_empty() {
                    continue;
                }
                let k = (lcg(&mut rng) % live.len() as u64) as usize;
                let (id, mi) = live.swap_remove(k);
                sim.core().cancel_timer(id);
                model[mi].cancelled = true;
            }
            // Run to a horizon: fires everything due, then the clock clamps
            // to the horizon — usually between events, often in a gap the
            // wheel has nothing in — and later ops schedule from there.
            7 => {
                let d =
                    DELTAS[(lcg(&mut rng) % DELTAS.len() as u64) as usize] + lcg(&mut rng) % 977;
                let until = sim.now().as_nanos() + d;
                sim.run_until(SimTime::from_nanos(until));
                assert_eq!(sim.now().as_nanos(), until);
                live.retain(|&(_, mi)| model[mi].at > until);
            }
            // Dispatch a few events.
            _ => {
                for _ in 0..(lcg(&mut rng) % 4) {
                    if !sim.step() {
                        break;
                    }
                }
                // Timers at or before `now` may already have fired; drop
                // them from the cancellable set (cancelling a fired timer
                // is a no-op in the engine but not in the model).
                let now = sim.now().as_nanos();
                live.retain(|&(_, mi)| model[mi].at > now);
            }
        }
    }
    sim.run_to_completion(10 * ops as u64);

    let mut expect: Vec<(u64, u64, u64)> = model
        .iter()
        .filter(|e| !e.cancelled)
        .map(|e| (e.at, e.ord, e.token))
        .collect();
    expect.sort_unstable();
    let expect: Vec<(u64, u64)> = expect.into_iter().map(|(at, _, tok)| (at, tok)).collect();

    let rec = sim.node_as::<Recorder>(node).expect("recorder node");
    assert_eq!(
        rec.fired, expect,
        "seed {seed}: engine firing order diverged from the sorted-list model"
    );
}

#[test]
fn randomized_schedules_match_sorted_list_model() {
    for seed in [7, 1009, 88_172_645, 0xDEAD_BEEF] {
        run_workload(seed, 4_000, 0);
        run_workload(seed, 4_000, 3_000);
    }
}

#[test]
fn burst_at_a_clock_clamped_into_an_idle_gap_matches_model() {
    // The shape of a short-flow run: a dense start-up burst drains, the only
    // thing left is a handshake timer 1 s out, `run_until` stops in the gap
    // before it, and the next burst is scheduled from the clamped clock.
    let mut sim: Simulator<u32> = Simulator::new(1);
    let node = sim.add_node(Box::new(Recorder::default()));
    let mut expect: Vec<(u64, u64)> = Vec::new();
    let mut token = 0u64;
    let mut arm = |sim: &mut Simulator<u32>, at: u64| {
        sim.core()
            .set_timer_at(node, SimTime::from_nanos(at), token);
        expect.push((at, token));
        token += 1;
    };
    for i in 0..2_000u64 {
        arm(&mut sim, (i * 7_919) % 3_000_000);
    }
    arm(&mut sim, 1_000_000_000);
    let gap = 420_000_000u64;
    sim.run_until(SimTime::from_nanos(gap));
    assert_eq!(sim.events_processed(), 2_000);
    assert_eq!(sim.now().as_nanos(), gap);
    assert_eq!(
        sim.next_event_time(),
        Some(SimTime::from_nanos(1_000_000_000))
    );
    // The burst straddles the far timer: same bucket as the clock, later
    // buckets, later segments.
    let mut rng = 99u64;
    for _ in 0..20_000 {
        arm(&mut sim, gap + lcg(&mut rng) % 900_000_000);
    }
    sim.run_to_completion(100_000);
    expect.sort_unstable();
    let rec = sim.node_as::<Recorder>(node).expect("recorder node");
    assert_eq!(rec.fired, expect);
}

#[test]
fn cancellation_heavy_workload_matches_model() {
    // A mix where most timers are cancelled exercises compaction (retain)
    // and stale-entry skipping together.
    for seed in [3, 404] {
        let mut sim: Simulator<u32> = Simulator::new(2);
        let node = sim.add_node(Box::new(Recorder::default()));
        let mut rng = seed;
        let mut expect: Vec<(u64, u64, u64)> = Vec::new();
        for token in 0..30_000u64 {
            let at = sim.now().as_nanos() + lcg(&mut rng) % 2_000_000_000;
            let id = sim
                .core()
                .set_timer_at(node, SimTime::from_nanos(at), token);
            if lcg(&mut rng) % 10 < 9 {
                sim.core().cancel_timer(id);
            } else {
                expect.push((at, token, token));
            }
        }
        sim.run_to_completion(100_000);
        expect.sort_unstable();
        let expect: Vec<(u64, u64)> = expect.into_iter().map(|(at, _, t)| (at, t)).collect();
        let rec = sim.node_as::<Recorder>(node).expect("recorder node");
        assert_eq!(rec.fired, expect, "seed {seed}");
    }
}
