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
//! demands identical firing sequences and, after every op, the next event
//! time the model predicts.

use netsim::time::SimTime;
use netsim::{Ctx, Node, Packet, Simulator, TimerId};
use std::any::Any;
use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};
use std::rc::Rc;

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

/// The model's view of what is pending, each timer as `(at, scheduling
/// order)`: those neither cancelled nor fired, and every cancelled one.
#[derive(Default)]
struct Pending {
    live: BTreeSet<(u64, u64)>,
    cancelled: BTreeSet<(u64, u64)>,
    /// How many of the recorder's firings `live` has dropped.
    seen: usize,
}

impl Pending {
    fn arm(&mut self, e: &ModelEntry) {
        self.live.insert((e.at, e.ord));
    }

    fn cancel(&mut self, e: &ModelEntry) {
        self.live.remove(&(e.at, e.ord));
        self.cancelled.insert((e.at, e.ord));
    }

    /// The engine's next event time must be the model's head: the earliest
    /// timer neither cancelled nor fired. A cancel leaves its timer's
    /// wake-up queued, so the engine may instead report an instant between
    /// now and that head at which a cancelled timer was due.
    fn check_head(&mut self, sim: &Simulator<u32>, node: netsim::NodeId, model: &[ModelEntry]) {
        let fired = &sim.node_as::<Recorder>(node).expect("recorder node").fired;
        for &(_, token) in &fired[self.seen..] {
            let e = &model[token as usize];
            self.live.remove(&(e.at, e.ord));
        }
        self.seen = fired.len();
        let head = self.live.first().map(|&(at, _)| at);
        let got = sim.next_event_time().map(SimTime::as_nanos);
        if got == head {
            return;
        }
        let now = sim.now().as_nanos();
        let dead_wakeup = got.is_some_and(|t| {
            t >= now
                && head.is_none_or(|h| t < h)
                && self
                    .cancelled
                    .range((t, 0)..=(t, u64::MAX))
                    .next()
                    .is_some()
        });
        assert!(
            dead_wakeup,
            "next_event_time {got:?} at now {now}, model head {head:?}"
        );
    }
}

fn lcg(x: &mut u64) -> u64 {
    *x = x
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *x >> 11
}

/// Deltas chosen to land everywhere interesting relative to the queue's
/// geometry: same bucket, neighbouring buckets, mid-ring, past one turn of
/// the ring (~134 ms, so the far heap takes it), many turns out, and — the
/// last two — minutes and hours out. With batch drains these also
/// interleave run consumption with pushes into every store, so a bucket
/// sorted once per refill must still merge correctly against inbox entries
/// that arrive mid-run, and a far entry must be in the ring by the time a
/// push can land behind it.
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

/// Deltas that keep the queue dense: a bucket is 131,072 ns and splits into
/// 64 sub-buckets of 2,048 ns once it holds more than 64 entries, so these
/// land in the sub-bucket being consumed, on either side of its edge, later
/// in the bucket, on either side of the bucket's edge, and in the next one.
const DENSE_DELTAS: [u64; 9] = [0, 1, 2_047, 2_048, 2_049, 40_000, 131_071, 131_072, 200_000];

/// `prefill` timers are scheduled before the first op: the queue is one
/// sorted run until 64 entries are pending, so a prefilled run is on the ring
/// from its first op and the other one crosses over with the clock running.
/// Returns the engine's count of pushes into split buckets.
fn run_workload(seed: u64, ops: usize, prefill: usize, deltas: &[u64]) -> u64 {
    // With the dense deltas a bounded run also stops on sub-bucket edges,
    // and a cancel is often a restart: the cancelled timer armed again
    // later, riding the entry its slot still has queued.
    let dense = deltas == DENSE_DELTAS;
    let mut sim: Simulator<u32> = Simulator::new(1);
    let node = sim.add_node(Box::new(Recorder::default()));
    let mut rng = seed;
    let mut model: Vec<ModelEntry> = Vec::new();
    let mut live: Vec<(TimerId, usize)> = Vec::new(); // (id, model index)
    let mut pending = Pending::default();
    let mut next_token = 0u64;

    for i in 0..ops + prefill {
        pending.check_head(&sim, node, &model);
        let op = if i < prefill { 0 } else { lcg(&mut rng) % 11 };
        match op {
            // Schedule (the bulk of the mix).
            0..=4 => {
                let d =
                    deltas[(lcg(&mut rng) % deltas.len() as u64) as usize] + lcg(&mut rng) % 977;
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
                pending.arm(&model[model.len() - 1]);
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
                pending.arm(&model[model.len() - 1]);
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
                pending.cancel(&model[mi]);
                if dense && lcg(&mut rng) & 1 == 0 {
                    let at = model[mi].at + deltas[(lcg(&mut rng) % deltas.len() as u64) as usize];
                    let id = sim
                        .core()
                        .set_timer_at(node, SimTime::from_nanos(at), next_token);
                    model.push(ModelEntry {
                        at,
                        ord: next_token,
                        token: next_token,
                        cancelled: false,
                    });
                    pending.arm(&model[model.len() - 1]);
                    live.push((id, model.len() - 1));
                    next_token += 1;
                }
            }
            // Run to a horizon: fires everything due, then the clock clamps
            // to the horizon — usually between events, often in a gap the
            // ring has nothing in — and later ops schedule from there.
            7 => {
                let now = sim.now().as_nanos();
                let d =
                    deltas[(lcg(&mut rng) % deltas.len() as u64) as usize] + lcg(&mut rng) % 977;
                let until = match dense.then(|| lcg(&mut rng) % 4) {
                    // The next sub-bucket edge, or the last instant before it.
                    Some(0) => (now / 2_048 + 1) * 2_048,
                    Some(1) => (now / 2_048 + 1) * 2_048 - 1,
                    _ => now + d,
                };
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
    pending.check_head(&sim, node, &model);
    sim.run_to_completion(10 * ops as u64);
    pending.check_head(&sim, node, &model);

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
    sim.split_pushes()
}

#[test]
fn randomized_schedules_match_sorted_list_model() {
    for seed in [7, 1009, 88_172_645, 0xDEAD_BEEF] {
        run_workload(seed, 4_000, 0, &DELTAS);
        run_workload(seed, 4_000, 3_000, &DELTAS);
    }
}

/// The same against buckets that hold hundreds of entries when the queue
/// reaches them, so they are split and consumed a sub-bucket at a time,
/// and pushes, peeks and bounded stops land in and around the sub-bucket
/// being consumed.
#[test]
fn dense_randomized_schedules_match_sorted_list_model() {
    for seed in [7, 1009, 88_172_645, 0xDEAD_BEEF] {
        let split = run_workload(seed, 4_000, 3_000, &DENSE_DELTAS);
        assert!(
            split > 1_000,
            "seed {seed}: {split} pushes into split buckets"
        );
    }
}

/// The queue's geometry, restated: a bucket is 2^17 ns wide and the ring has
/// 1024 of them. The scripted tests below aim at its edges; with another
/// geometry they stay true and only get duller.
const TICK_NS: u64 = 1 << 17;
const TURN_NS: u64 = 1024 * TICK_NS;

/// Timers armed at absolute instants from outside, between bounded runs;
/// what fires must be the sorted list of what was armed.
struct Script {
    sim: Simulator<u32>,
    node: netsim::NodeId,
    armed: Vec<(u64, u64)>,
}

impl Script {
    /// A queue that is on the ring from the start: 200 timers pending in the
    /// first 3 ms.
    fn dense() -> Script {
        let mut sim: Simulator<u32> = Simulator::new(1);
        let node = sim.add_node(Box::new(Recorder::default()));
        let mut s = Script {
            sim,
            node,
            armed: Vec::new(),
        };
        for i in 0..200u64 {
            s.arm((i * 7_919) % 3_000_000);
        }
        s
    }

    fn arm(&mut self, at: u64) {
        let token = self.armed.len() as u64;
        self.sim
            .core()
            .set_timer_at(self.node, SimTime::from_nanos(at), token);
        self.armed.push((at, token));
    }

    /// Fire what is due by `until` and put the clock there.
    fn run_until(&mut self, until: u64) {
        self.sim.run_until(SimTime::from_nanos(until));
        assert_eq!(self.sim.now().as_nanos(), until);
    }

    /// Arm a timer at `at`, fire everything up to and including it: the
    /// clock and the queue's cursor are both in `at`'s bucket afterwards.
    fn park_cursor_at(&mut self, at: u64) {
        self.arm(at);
        self.run_until(at);
    }

    fn finish(mut self) {
        self.sim
            .run_to_completion(10 * self.armed.len() as u64 + 100);
        self.armed.sort_unstable();
        let rec = self.sim.node_as::<Recorder>(self.node).expect("recorder");
        assert!(
            rec.fired == self.armed,
            "firing order diverged from the sorted list"
        );
    }
}

#[test]
fn burst_at_a_clock_clamped_into_an_idle_gap_matches_model() {
    // The shape of a short-flow run: a dense start-up burst drains, the only
    // thing left is a handshake timer far out, `run_until` stops in the gap
    // before it — a gap longer than one turn of the ring, so the timer is
    // still in the far heap — and the next burst is scheduled from the
    // clamped clock: into the ring, around a timer that is not in it yet.
    for (gap, far) in [
        (420_000_000, 1_000_000_000),
        // Stopped exactly on a turn boundary, the timer exactly a turn on.
        (3 * TURN_NS, 4 * TURN_NS),
        (60_000_000_000, 60_000_000_000 + TURN_NS + 1),
    ] {
        let mut s = Script::dense();
        s.arm(far);
        s.run_until(gap);
        assert_eq!(s.sim.events_processed(), 200);
        assert_eq!(s.sim.next_event_time(), Some(SimTime::from_nanos(far)));
        // The burst straddles the far timer: same bucket as the clock, later
        // buckets, later turns.
        let mut rng = 99u64;
        for _ in 0..20_000 {
            s.arm(gap + lcg(&mut rng) % 900_000_000);
        }
        // One more stop in an empty stretch with the far timer behind it.
        s.run_until(far + 2_000_000_000);
        s.arm(far + 2_000_000_000);
        s.finish();
    }
}

#[test]
fn entries_either_side_of_one_turn_pop_in_order() {
    // One turn ahead of the cursor is the cursor's own bucket again: an
    // entry there waits in the far heap, one a tick earlier is in the ring's
    // last bucket. Wherever the cursor is parked — on a multiple of the turn
    // length, just short of one, in mid-ring — both, and their neighbours
    // and ties, must fire in order.
    for parked in [
        4 * TURN_NS,
        5 * TURN_NS - 50_000_000,
        7 * TURN_NS + 17 * TICK_NS + 5,
        9 * TURN_NS - 1,
    ] {
        let mut s = Script::dense();
        s.park_cursor_at(parked);
        let bucket_start = parked - parked % TICK_NS;
        for base in [parked, bucket_start] {
            for offset in [
                TURN_NS + TICK_NS,
                TURN_NS + 1,
                TURN_NS,
                TURN_NS,
                TURN_NS - 1,
                TURN_NS - TICK_NS,
                50_000_000,
                TICK_NS,
                2 * TURN_NS,
                2 * TURN_NS - 1,
                TURN_NS - 1,
            ] {
                s.arm((base + offset).max(parked));
            }
        }
        s.finish();
    }
}

#[test]
fn a_push_behind_an_admitted_far_entry_fires_after_it() {
    // A timer a little over a turn out goes to the far heap. The cursor then
    // moves a few buckets, which brings it within the ring's reach — and so
    // does everything scheduled after it from the new clock. If it were
    // still in the heap when those land in the ring, they would fire first.
    let mut s = Script::dense();
    let t0 = 6 * TURN_NS + 300 * TICK_NS;
    s.park_cursor_at(t0);
    let far = t0 + TURN_NS + 5 * TICK_NS;
    s.arm(far);
    // (Something further along the ring, so that the cursor gets to its next
    // stop by finding an occupied bucket, not by finding none.)
    s.arm(t0 + 500 * TICK_NS);
    s.park_cursor_at(t0 + 10 * TICK_NS);
    for later in [far + 2 * TICK_NS, far + 1, far, far - 1, far + 3 * TICK_NS] {
        s.arm(later);
    }
    // The same with the clock stopped in an empty stretch, nothing in the
    // ring to carry the cursor along, and nothing scheduled before the far
    // timer to stop the cursor short of it.
    let t1 = far + 40 * TURN_NS;
    let far = t1 + TURN_NS + 5 * TICK_NS;
    s.arm(far);
    s.run_until(t1 + 10 * TICK_NS);
    for later in [far + 2 * TICK_NS, far + 3 * TICK_NS] {
        s.arm(later);
    }
    s.finish();
}

#[test]
fn a_delivery_chain_rolls_across_turn_boundaries() {
    // A 50 ms hop scheduled from wherever the last one landed crosses a
    // multiple of the turn length more often than one time in three. There is
    // nothing at those instants any more: each hop is less than a turn ahead
    // of the cursor and goes straight to its bucket.
    let mut s = Script::dense();
    s.run_until(3_000_000);
    let mut at = 3_000_000u64;
    for hop in 0..120u64 {
        let next = at + 50_000_000 + hop * 1_237;
        s.arm(next);
        // Its RTO, a second out, and a neighbour in the hop's own bucket.
        s.arm(next + 1_000_000_000);
        s.arm(next + 7);
        s.run_until(next);
        at = next;
    }
    s.finish();
}

#[test]
fn cancellation_heavy_workload_matches_model() {
    // Most timers are cancelled at once, so nearly every arming lands on a
    // slot that still has a wake-up queued for some other instant.
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

/// One arming of a timer, as the model sees it.
struct Armed {
    at: u64,
    node: usize,
    id: TimerId,
    token: u64,
    cancelled: bool,
}

/// What the two [`Restarter`] nodes of one run share with the test.
#[derive(Default)]
struct Restarts {
    /// `(now, node, id, token)` per fire, in fire order across both nodes.
    fired: Vec<(u64, usize, TimerId, u64)>,
    /// Tokens whose timer arms another from inside `on_timer`: `(delay,
    /// token of the new timer)`.
    chain: HashMap<u64, (u64, u64)>,
    /// The timers armed that way, in arming order.
    chained: Vec<Armed>,
}

struct Restarter {
    index: usize,
    shared: Rc<RefCell<Restarts>>,
}

impl Node<u32> for Restarter {
    fn on_packet(&mut self, _p: Packet<u32>, _c: &mut Ctx<'_, u32>) {}
    fn on_timer(&mut self, id: TimerId, token: u64, c: &mut Ctx<'_, u32>) {
        let now = c.now().as_nanos();
        let mut shared = self.shared.borrow_mut();
        shared.fired.push((now, self.index, id, token));
        if let Some((delay, token)) = shared.chain.remove(&token) {
            let at = now + delay;
            let id = c.set_timer_at(SimTime::from_nanos(at), token);
            shared.chained.push(Armed {
                at,
                node: self.index,
                id,
                token,
                cancelled: false,
            });
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A timer's queue entry stands for whatever its slot is armed for when the
/// entry pops, so the sequences that matter are the ones that arm a
/// cancelled slot again (the free list is LIFO: a cancel's slot is the next
/// arming's): for a later instant, where the new arming rides the queued
/// entry; for an earlier one, where it cannot; by the other node, with
/// another token; for the current instant; and from inside `on_timer`, on
/// the slot that is firing. Random interleavings of all of them on two
/// nodes, with steps and `run_until` in between, must fire exactly the
/// uncancelled armings in `(at, arming order)` order, each on the node that
/// armed it with the id and token of that arming.
#[test]
fn restarted_timers_match_sorted_list_model() {
    for seed in [11, 2_024, 0xFEED_5EED] {
        restart_workload(seed, 6_000, 0);
        restart_workload(seed, 6_000, 500);
    }
}

fn restart_workload(seed: u64, ops: usize, prefill: usize) {
    let shared = Rc::new(RefCell::new(Restarts::default()));
    let mut sim: Simulator<u32> = Simulator::new(1);
    let nodes: Vec<_> = (0..2)
        .map(|index| {
            let shared = shared.clone();
            sim.add_node(Box::new(Restarter { index, shared }))
        })
        .collect();
    let mut rng = seed;
    // Every arming in arming order (the engine's tiebreak), whoever made it.
    let mut model: Vec<Armed> = Vec::new();
    let mut next_token = 0u64;

    for i in 0..ops + prefill {
        let now = sim.now().as_nanos();
        let far = DELTAS[(lcg(&mut rng) % 8) as usize] + lcg(&mut rng) % 977;
        let node = (lcg(&mut rng) % 2) as usize;
        let op = if i < prefill { 0 } else { lcg(&mut rng) % 12 };
        // Ops 3..=7 cancel a timer that cannot have fired yet.
        let pending: Vec<usize> = (0..model.len())
            .filter(|&k| !model[k].cancelled && model[k].at > now)
            .collect();
        let cancelled = ((3..=7).contains(&op) && !pending.is_empty()).then(|| {
            let k = pending[(lcg(&mut rng) % pending.len() as u64) as usize];
            sim.core().cancel_timer(model[k].id);
            model[k].cancelled = true;
            (model[k].node, model[k].at)
        });
        let arming = match (op, cancelled) {
            // Plain arming; arming for the current instant.
            (0..=2, _) => Some((node, now + far)),
            (8, _) => Some((node, now)),
            // Restart later than the cancelled deadline, or earlier.
            (3 | 4, Some((owner, at))) => Some((owner, at + far)),
            (5, Some((owner, at))) => Some((owner, now + lcg(&mut rng) % (at - now))),
            // Cancelled by one node, armed by the other.
            (6, Some((owner, _))) => Some((1 - owner, now + far)),
            // A timer that arms another when it fires (below).
            (9, _) => Some((node, now + far)),
            _ => None,
        };
        if let Some((node, at)) = arming {
            let token = next_token;
            next_token += 1;
            if op == 9 {
                // The second timer is due at that instant or later, and has
                // a token of its own.
                let delay = [0, 1, 40_000, 300_000_000][(lcg(&mut rng) % 4) as usize];
                shared.borrow_mut().chain.insert(token, (delay, next_token));
                next_token += 1;
            }
            let id = sim
                .core()
                .set_timer_at(nodes[node], SimTime::from_nanos(at), token);
            model.push(Armed {
                at,
                node,
                id,
                token,
                cancelled: false,
            });
        }
        match op {
            10 => {
                for _ in 0..(lcg(&mut rng) % 6) {
                    sim.step();
                }
            }
            11 => sim.run_until(SimTime::from_nanos(now + far)),
            _ => {}
        }
        // Timers armed inside `on_timer` since the last op take their place
        // in arming order here: nothing else was armed meanwhile.
        model.append(&mut shared.borrow_mut().chained);
    }
    sim.run_to_completion(20 * (ops + prefill) as u64);
    let mut shared = shared.borrow_mut();
    model.append(&mut shared.chained);

    let mut expect: Vec<(u64, usize)> = (0..model.len())
        .filter(|&order| !model[order].cancelled)
        .map(|order| (model[order].at, order))
        .collect();
    expect.sort_unstable();
    let expect: Vec<_> = expect
        .into_iter()
        .map(|(at, order)| (at, model[order].node, model[order].id, model[order].token))
        .collect();
    assert!(
        shared.fired == expect,
        "seed {seed}: fire order, ids or tokens diverged from the sorted-list model"
    );
    assert_eq!(sim.core().live_timer_count(), 0);
}

/// Below 64 pending events the queue is one run sorted latest-first: a push
/// scans back from the tail, a pop takes the last entry. Everything that can
/// go wrong there is an insertion position: among entries due at the same
/// instant (arming order breaks the tie), behind a far timer that was
/// pushed first and sits at the front, at either end of the run, and across
/// the hand-over to the ring when a burst takes the population over 64
/// while entries are being popped. A sorted list says what must fire, and
/// `next_event_time`, `run_until` and a snapshot's drain-and-refill have to
/// agree with it at every step.
#[test]
fn sparse_run_matches_reference_sort() {
    use netsim::snap::SnapWriter;

    for (seed, ceiling) in [(5u64, 40usize), (77, 60), (0xB0A7, 200), (31_337, 200)] {
        let mut sim: Simulator<u32> = Simulator::new(1);
        let node = sim.add_node(Box::new(Recorder::default()));
        let mut rng = seed;
        // Pending `(at, token)`; tokens are handed out in arming order, so
        // sorting this is sorting by the engine's `(at, seq)`.
        let mut pending: Vec<(u64, u64)> = Vec::new();
        let mut fired: Vec<(u64, u64)> = Vec::new();
        let mut token = 0u64;
        let mut arm = |sim: &mut Simulator<u32>, pending: &mut Vec<(u64, u64)>, at: u64| {
            sim.core()
                .set_timer_at(node, SimTime::from_nanos(at), token);
            pending.push((at, token));
            pending.sort_unstable();
            token += 1;
        };
        // The far timer goes in first: every later push has to stop behind it.
        arm(&mut sim, &mut pending, 1_000_000_000);

        for _ in 0..6_000 {
            let now = sim.now().as_nanos();
            let room = pending.len() < ceiling;
            match lcg(&mut rng) % 10 {
                // At the clock: the tail of the run.
                0 if room => arm(&mut sim, &mut pending, now),
                // Later than everything pending: the front of the run.
                1 if room => {
                    let last = pending.last().map_or(now, |e| e.0);
                    arm(&mut sim, &mut pending, last + lcg(&mut rng) % 50_000);
                }
                // The instant of an entry already pending: a tie.
                2 | 3 if room && !pending.is_empty() => {
                    let tie = pending[(lcg(&mut rng) % pending.len() as u64) as usize].0;
                    arm(&mut sim, &mut pending, tie);
                }
                // Somewhere in the near future.
                4 | 5 if room => arm(&mut sim, &mut pending, now + lcg(&mut rng) % 300_000),
                // A burst, which at the higher ceilings crosses 64 pending
                // with earlier entries already popped.
                6 if room => {
                    for _ in 0..lcg(&mut rng) % 30 {
                        arm(&mut sim, &mut pending, now + lcg(&mut rng) % 2_000_000);
                    }
                }
                // A bounded run to a horizon between, at or past entries.
                7 => {
                    let until = match lcg(&mut rng) % 3 {
                        0 => now + lcg(&mut rng) % 100_000,
                        1 => pending.first().map_or(now, |e| e.0),
                        _ => pending.get(pending.len() / 2).map_or(now, |e| e.0 + 1),
                    };
                    sim.run_until(SimTime::from_nanos(until));
                    assert_eq!(sim.now().as_nanos(), until);
                    let due = pending.partition_point(|e| e.0 <= until);
                    fired.extend(pending.drain(..due));
                }
                // A snapshot drains the queue in order and pushes it back.
                8 => {
                    sim.save_snapshot(&mut SnapWriter::new());
                }
                _ => {
                    for _ in 0..1 + lcg(&mut rng) % 5 {
                        if sim.step() {
                            fired.push(pending.remove(0));
                        }
                    }
                }
            }
            assert_eq!(
                sim.next_event_time().map(|t| t.as_nanos()),
                pending.first().map(|e| e.0),
                "seed {seed}: head of the queue"
            );
            assert_eq!(sim.core().pending_events(), pending.len(), "seed {seed}");
        }
        sim.run_to_completion(100_000);
        fired.append(&mut pending);
        let rec = sim.node_as::<Recorder>(node).expect("recorder node");
        assert!(
            rec.fired == fired,
            "seed {seed}: firing order diverged from the sorted list"
        );
    }
}
