//! Conservative parallel execution: one scenario, N shards, zero rollback.
//!
//! A sharded run splits a topology into `parts` **partitions**, each owning
//! a disjoint set of hosts plus their access links, with its own
//! [`Simulator`] — its own event wheel, packet arena, and RNG substreams.
//! Partitions exchange packets only through [`Portal`] nodes, which carry a
//! mandatory extra propagation delay (the WAN leg of the path). That delay
//! is the **lookahead** `L`: a packet handed off at local time `t` cannot
//! arrive before `t + L`, so all partitions can safely simulate the window
//! `[now, M + L]` in parallel, where `M` is the global minimum next-event
//! time. No partition ever needs to roll back.
//!
//! ## Determinism contract
//!
//! The partition count is a property of the *scenario*, not of the machine:
//! `threads` only maps partitions onto worker threads. Every quantity that
//! shapes execution — window boundaries, injection order, per-partition
//! `(at, seq)` assignment — is computed from partition-indexed state and is
//! independent of which thread touches it, so output is byte-identical for
//! `threads = 1, 2, or N` (the same contract the harness enforces for
//! `--jobs`).
//!
//! A portal pushes each crossing packet straight into the `(destination,
//! source)` mailbox slot; the destination drains its column of slots at the
//! next window barrier, so a crossing packet is held in exactly one buffer.
//! Cross-partition arrivals are injected at that barrier in a canonical
//! order: `(arrival time, source partition rank, emission index within
//! source)`, a k-way merge of the per-source batches. Injection assigns the
//! destination's next `seq`, so the merged firing order inherits the
//! engine's exact `(at, seq)` discipline with the shard rank as tiebreak.
//!
//! ## Arena-handle rule
//!
//! [`crate::packet::PacketHandle`]s never cross a partition boundary. A
//! packet leaves its source shard **by value** (the portal receives it
//! after the engine freed its arena slot) and is re-allocated into the
//! destination arena by [`crate::engine::EngineCore::inject_arrival`]. Packet *ids* are
//! only unique per partition; cross-partition id collisions are benign
//! because ids feed stats and traces, never lookups.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};

use crate::engine::{Ctx, HygieneReport, Simulator};
use crate::node::{Node, TimerId};
use crate::packet::{LinkId, NodeId, Packet, Payload};
use crate::time::{SimDuration, SimTime};

/// A packet crossing a partition boundary, by value, with its arrival
/// prescheduled in the destination's clock.
struct OutMsg<P: Payload> {
    /// Absolute arrival time at the destination node (source handoff time
    /// plus the portal's extra delay).
    at: SimTime,
    /// Destination node, in the destination partition's id space.
    dst_node: NodeId,
    /// Ingress stub link in the destination partition; its `delivered`
    /// counter is bumped at arrival so wire-side conservation closes across
    /// the boundary (egress `delivered` == ingress `delivered`).
    dst_link: LinkId,
    /// The packet itself (ids remain from the source partition's counter).
    pkt: Packet<P>,
}

/// One `(dst, src)` mailbox slot: the batch `src` has emitted for `dst`
/// since `dst` last drained it, in emission order. The only buffer a
/// crossing packet passes through.
type Slot<P> = Arc<Mutex<Vec<OutMsg<P>>>>;

/// Terminal node for a cross-partition egress link. The source partition
/// routes WAN-bound packets onto a zero-delay link whose `dst` is a portal;
/// the portal stamps the WAN propagation delay and pushes the packet into
/// its destination's mailbox slot, which the destination drains at the
/// next barrier.
struct Portal<P: Payload> {
    slot: Slot<P>,
    dst_node: NodeId,
    dst_link: LinkId,
    extra_delay: SimDuration,
}

impl<P: Payload> Node<P> for Portal<P> {
    fn on_packet(&mut self, pkt: Packet<P>, ctx: &mut Ctx<'_, P>) {
        self.slot.lock().expect(MAIL_POISONED).push(OutMsg {
            at: ctx.now() + self.extra_delay,
            dst_node: self.dst_node,
            dst_link: self.dst_link,
            pkt,
        });
    }

    fn on_timer(&mut self, _id: TimerId, _token: u64, _ctx: &mut Ctx<'_, P>) {
        unreachable!("portals never arm timers");
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Handed to the build closure so it can wire portals into its partition.
/// Tracks the minimum portal delay, which bounds the lookahead window.
pub struct ShardHandle<P: Payload> {
    part: usize,
    parts: usize,
    /// `mail[dst][part]` for every `dst`: this partition's row of slots.
    slots: Vec<Slot<P>>,
    min_extra_delay: Option<SimDuration>,
}

impl<P: Payload> ShardHandle<P> {
    /// This partition's rank in `0..parts()`.
    pub fn part(&self) -> usize {
        self.part
    }

    /// Total number of partitions in the run.
    pub fn parts(&self) -> usize {
        self.parts
    }

    /// Add a portal node to `sim` forwarding to `(dst_part, dst_node)` with
    /// arrivals accounted to `dst_link` (an ingress stub link that must
    /// exist in the destination partition). Point a zero-delay egress link
    /// at the returned node; `extra_delay` models the WAN leg and must be
    /// positive — it is the lookahead that keeps the conservative barrier
    /// sound.
    pub fn add_portal(
        &mut self,
        sim: &mut Simulator<P>,
        dst_part: usize,
        dst_node: NodeId,
        dst_link: LinkId,
        extra_delay: SimDuration,
    ) -> NodeId {
        assert!(
            dst_part != self.part && dst_part < self.parts,
            "portal must target another partition: {} -> {dst_part}",
            self.part
        );
        assert!(
            !extra_delay.is_zero(),
            "portal extra_delay must be > 0: it is the lookahead bounding \
             the conservative window"
        );
        self.min_extra_delay = Some(match self.min_extra_delay {
            Some(d) => d.min(extra_delay),
            None => extra_delay,
        });
        sim.add_node(Box::new(Portal {
            slot: Arc::clone(&self.slots[dst_part]),
            dst_node,
            dst_link,
            extra_delay,
        }))
    }
}

/// One per-partition, per-window telemetry record — the runtime data the
/// barrier loop was blind to before: load balance, mailbox pressure,
/// wheel depth, arena footprint, and where wall time actually goes.
///
/// **Determinism contract:** every field except the two `wall_*` fields
/// is a function of `(parts, seeds, horizon)` alone — byte-identical for
/// any `--shards N` — and is safe to golden. The `wall_*` fields are
/// wall-clock measurements, vary run to run and thread count to thread
/// count, and must be excluded from byte-identity checks (the JSONL
/// emitter groups them under a separate `"wall"` object so checkers can
/// strip them syntactically).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowTelemetry {
    /// Conservative window index (0-based round counter).
    pub window: u64,
    /// Partition rank this record describes.
    pub part: usize,
    /// Window end in virtual nanoseconds (`u64::MAX` for the single
    /// unbounded window of a portal-free run).
    pub w_end_ns: u64,
    /// Events this partition fired inside the window.
    pub events: u64,
    /// Cross-partition messages this partition's portals pushed during the
    /// *previous* window, counted off its mailbox slots at this window's
    /// Phase A barrier.
    pub deposited: u64,
    /// Cross-partition messages injected into this partition at Phase B.
    pub injected: u64,
    /// Deepest single-source mailbox batch seen at injection — the
    /// per-pair burst size, the number finer partitioning must tame.
    pub mailbox_max: u64,
    /// Events still pending in the wheel after the window (live + stale).
    pub wheel_depth: u64,
    /// Packets parked in the arena after the window.
    pub arena_live: u64,
    /// Arena high-water mark (allocated slots; never shrinks).
    pub arena_hiwater: u64,
    /// Wall time this partition's *thread* spent blocked on the window's
    /// two barriers (thread-attributed: partitions sharing a thread
    /// report the same value). Nondeterministic.
    pub wall_barrier_ns: u64,
    /// Wall time spent advancing this partition through the window.
    /// Nondeterministic.
    pub wall_window_ns: u64,
}

/// Aggregate progress snapshot handed to the heartbeat hook once per
/// window (by exactly one thread, after all partitions finished the
/// previous window).
#[derive(Debug, Clone, Copy)]
pub struct Heartbeat {
    /// Windows completed so far.
    pub round: u64,
    /// Virtual end of the last completed window, in nanoseconds.
    pub now_ns: u64,
    /// Sum of the progress-probe results across all partitions (e.g.
    /// flows completed), or 0 when no probe is installed.
    pub done: u64,
    /// Partition count, for rate math in the sink.
    pub parts: usize,
}

/// A [`ShardHooks::progress`] probe: `(partition rank, partition sim) ->
/// cumulative units done`.
pub type ProgressProbe<'a, P> = &'a (dyn Fn(usize, &mut Simulator<P>) -> u64 + Sync);

/// Optional observers for a sharded run. Everything defaults to off, and
/// the off path costs one branch per partition per window — the same
/// cold-`None` contract as the engine's flight recorder.
pub struct ShardHooks<'a, P: Payload> {
    /// Collect a [`WindowTelemetry`] record per partition per window.
    pub telemetry: bool,
    /// Per-partition progress probe, run after each window on the thread
    /// owning the partition: returns cumulative "units done" (scenario
    /// defined — e.g. completed flows). Sums feed the heartbeat.
    pub progress: Option<ProgressProbe<'a, P>>,
    /// Called once per window with the aggregate [`Heartbeat`]. Intended
    /// for stderr progress lines; never write run output here (it fires
    /// on an arbitrary worker thread).
    pub heartbeat: Option<&'a (dyn Fn(&Heartbeat) + Sync)>,
}

impl<P: Payload> Default for ShardHooks<'_, P> {
    fn default() -> Self {
        ShardHooks {
            telemetry: false,
            progress: None,
            heartbeat: None,
        }
    }
}

/// What [`run_sharded`] returns: per-partition results and hygiene, in
/// partition order, plus run-shape counters.
pub struct ShardRun<T> {
    /// One entry per partition, in rank order, from the finish closure.
    pub results: Vec<T>,
    /// Per-partition hygiene snapshots taken after the run ended. At a
    /// natural drain `live_packets` must sum to zero across all entries;
    /// a horizon cut legitimately leaves in-flight packets behind.
    pub hygiene: Vec<HygieneReport>,
    /// Number of barrier rounds executed.
    pub rounds: u64,
    /// Total cross-partition messages injected.
    pub cross_messages: u64,
    /// Per-window, per-partition runtime records in canonical
    /// `(window, part)` order — `Some` iff [`ShardHooks::telemetry`] was
    /// set. Virtual-time fields are byte-identical for any thread count.
    pub telemetry: Option<Vec<WindowTelemetry>>,
}

/// A mailbox is only poisoned by a worker that panicked holding it, and
/// that panic is what the scope re-raises.
const MAIL_POISONED: &str = "a shard worker panicked holding a mailbox";

/// Shared coordination state for one sharded run.
struct Coord<P: Payload> {
    /// `mail[dst][src]`: the batch `src`'s portals push for `dst` during a
    /// window. Uncontended by construction: `src` writes only in Phase D,
    /// `dst` drains only in Phase B, and a barrier separates the two, so
    /// the mutexes never block. The destination drains in place, so a
    /// slot keeps its capacity for the next window.
    mail: Vec<Vec<Slot<P>>>,
    /// Per-partition lookahead published once after build.
    lookahead: Vec<Mutex<Option<SimDuration>>>,
    /// Per-partition next-event time published each round after injection.
    mins: Vec<Mutex<Option<u64>>>,
    barrier: Barrier,
    rounds: AtomicU64,
    cross_messages: AtomicU64,
    /// Per-partition cumulative progress units (probe results), read by
    /// the heartbeat leader one barrier later.
    progress: Vec<AtomicU64>,
    /// Telemetry records parked by each worker at run end; `run_sharded`
    /// sorts them into canonical `(window, part)` order.
    telemetry: Mutex<Vec<WindowTelemetry>>,
}

/// Run a partitioned scenario to completion (or `horizon`) on up to
/// `threads` worker threads.
///
/// `build(rank, handle)` constructs partition `rank`'s simulator — nodes,
/// links, portals via [`ShardHandle::add_portal`], and any initial events —
/// and is called on the thread that will own the partition (a
/// [`Simulator`] never migrates). `finish(rank, sim)` runs after the
/// barrier loop ends and extracts the partition's result.
///
/// Partitions are assigned to threads round-robin (`rank % threads`);
/// because all scheduling decisions are partition-indexed, the output is
/// byte-identical for any `threads >= 1`.
pub fn run_sharded<P, T, B, F>(
    parts: usize,
    threads: usize,
    horizon: Option<SimTime>,
    build: B,
    finish: F,
) -> ShardRun<T>
where
    P: Payload + Send,
    T: Send,
    B: Fn(usize, &mut ShardHandle<P>) -> Simulator<P> + Sync,
    F: Fn(usize, &mut Simulator<P>) -> T + Sync,
{
    run_sharded_with(
        parts,
        threads,
        horizon,
        ShardHooks::default(),
        build,
        finish,
    )
}

/// [`run_sharded`] with observers attached — window telemetry, progress
/// probe, heartbeat (see [`ShardHooks`]). With default hooks this is
/// exactly `run_sharded`.
pub fn run_sharded_with<P, T, B, F>(
    parts: usize,
    threads: usize,
    horizon: Option<SimTime>,
    hooks: ShardHooks<'_, P>,
    build: B,
    finish: F,
) -> ShardRun<T>
where
    P: Payload + Send,
    T: Send,
    B: Fn(usize, &mut ShardHandle<P>) -> Simulator<P> + Sync,
    F: Fn(usize, &mut Simulator<P>) -> T + Sync,
{
    assert!(parts >= 1, "need at least one partition");
    let threads = threads.clamp(1, parts);

    let coord = Coord::<P> {
        mail: (0..parts)
            .map(|_| (0..parts).map(|_| Slot::default()).collect())
            .collect(),
        lookahead: (0..parts).map(|_| Mutex::new(None)).collect(),
        mins: (0..parts).map(|_| Mutex::new(None)).collect(),
        barrier: Barrier::new(threads),
        rounds: AtomicU64::new(0),
        cross_messages: AtomicU64::new(0),
        progress: (0..parts).map(|_| AtomicU64::new(0)).collect(),
        telemetry: Mutex::new(Vec::new()),
    };
    let slots: Mutex<Vec<Option<(T, HygieneReport)>>> =
        Mutex::new((0..parts).map(|_| None).collect());

    std::thread::scope(|scope| {
        for tid in 0..threads {
            let coord = &coord;
            let slots = &slots;
            let build = &build;
            let finish = &finish;
            let hooks = &hooks;
            scope.spawn(move || {
                shard_worker(
                    tid, threads, parts, horizon, hooks, coord, slots, build, finish,
                );
            });
        }
    });

    let mut results = Vec::with_capacity(parts);
    let mut hygiene = Vec::with_capacity(parts);
    for (rank, slot) in slots.into_inner().unwrap().into_iter().enumerate() {
        let (r, h) = slot.unwrap_or_else(|| panic!("partition {rank} produced no result"));
        results.push(r);
        hygiene.push(h);
    }
    let telemetry = hooks.telemetry.then(|| {
        let mut t = coord.telemetry.into_inner().unwrap();
        t.sort_by_key(|r| (r.window, r.part));
        t
    });
    ShardRun {
        results,
        hygiene,
        rounds: coord.rounds.load(Ordering::Relaxed),
        cross_messages: coord.cross_messages.load(Ordering::Relaxed),
        telemetry,
    }
}

/// One worker thread's life: build owned partitions, run the two-barrier
/// round loop, extract results. All threads compute the same window bounds
/// from the same published state, so no leader election is needed for
/// control flow (the barrier leader only bumps the round counter).
#[allow(clippy::too_many_arguments)]
fn shard_worker<P, T, B, F>(
    tid: usize,
    threads: usize,
    parts: usize,
    horizon: Option<SimTime>,
    hooks: &ShardHooks<'_, P>,
    coord: &Coord<P>,
    slots: &Mutex<Vec<Option<(T, HygieneReport)>>>,
    build: &B,
    finish: &F,
) where
    P: Payload + Send,
    T: Send,
    B: Fn(usize, &mut ShardHandle<P>) -> Simulator<P> + Sync,
    F: Fn(usize, &mut Simulator<P>) -> T + Sync,
{
    // Build the partitions this thread owns (round-robin assignment).
    let mut owned: Vec<(usize, Simulator<P>)> = Vec::new();
    for rank in (tid..parts).step_by(threads) {
        let mut handle = ShardHandle {
            part: rank,
            parts,
            slots: coord
                .mail
                .iter()
                .map(|row| Arc::clone(&row[rank]))
                .collect(),
            min_extra_delay: None,
        };
        let sim = build(rank, &mut handle);
        *coord.lookahead[rank].lock().unwrap() = handle.min_extra_delay;
        owned.push((rank, sim));
    }
    coord.barrier.wait();

    // Global lookahead: the smallest portal delay anywhere. `None` means no
    // portals exist — partitions are independent and one unbounded window
    // suffices.
    let lookahead: Option<SimDuration> = coord
        .lookahead
        .iter()
        .filter_map(|m| *m.lock().unwrap())
        .min();
    let horizon_ns = horizon.map_or(u64::MAX, |h| h.as_nanos());
    let mut local_cross: u64 = 0;
    // Telemetry state, all dormant unless the hook is armed: records for
    // the partitions this thread owns, plus per-partition scratch for the
    // phases of the window currently in flight.
    let mut tele: Vec<WindowTelemetry> = Vec::new();
    let mut scratch: Vec<(u64, u64, u64)> = vec![(0, 0, 0); owned.len()]; // (deposited, injected, mailbox_max)
    let mut round: u64 = 0;
    let mut last_w_end: u64 = 0;

    loop {
        // Phase A: the mail of the window just run already sits in its
        // slots; the barrier hands it to the destinations. Telemetry counts
        // this partition's row before anyone may drain it.
        if hooks.telemetry {
            for (i, (rank, _)) in owned.iter().enumerate() {
                let deposited = coord
                    .mail
                    .iter()
                    .map(|row| row[*rank].lock().expect(MAIL_POISONED).len() as u64)
                    .sum();
                scratch[i] = (deposited, 0, 0);
            }
        }
        let mut wall_barrier = std::time::Duration::ZERO;
        let t0 = hooks.telemetry.then(std::time::Instant::now);
        let a_leader = coord.barrier.wait().is_leader();
        if let Some(t0) = t0 {
            wall_barrier += t0.elapsed();
        }
        // Heartbeat: the Phase A barrier orders every probe store from the
        // previous window before this read, so one thread reports an exact
        // global snapshot (round 0 has nothing to report).
        if a_leader && round > 0 {
            if let Some(beat) = hooks.heartbeat {
                let done = coord
                    .progress
                    .iter()
                    .map(|p| p.load(Ordering::Relaxed))
                    .sum();
                beat(&Heartbeat {
                    round,
                    now_ns: last_w_end,
                    done,
                    parts,
                });
            }
        }

        // Phase B: inject inbound messages in canonical order, publish the
        // partition's next-event time.
        for (i, (rank, sim)) in owned.iter_mut().enumerate() {
            let mut batches: Vec<_> = coord.mail[*rank]
                .iter()
                .map(|m| m.lock().expect(MAIL_POISONED))
                .collect();
            let injected: u64 = batches.iter().map(|b| b.len() as u64).sum();
            local_cross += injected;
            if hooks.telemetry {
                scratch[i].1 = injected;
                scratch[i].2 = batches.iter().map(|b| b.len() as u64).max().unwrap_or(0);
            }
            merge_batches(&mut batches, |msg| {
                sim.core()
                    .inject_arrival(msg.at, msg.dst_node, msg.dst_link, msg.pkt);
            });
            *coord.mins[*rank].lock().unwrap() = sim.next_event_time().map(SimTime::as_nanos);
        }
        let t0 = hooks.telemetry.then(std::time::Instant::now);
        if coord.barrier.wait().is_leader() {
            coord.rounds.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(t0) = t0 {
            wall_barrier += t0.elapsed();
        }

        // Phase C: every thread computes the same window from the published
        // mins (stable until the next round's Phase B, which all threads
        // must pass Phase A's barrier to reach). M == None means globally
        // drained: no events and no mail anywhere.
        let m = coord.mins.iter().filter_map(|m| *m.lock().unwrap()).min();
        let w_end = match m {
            None => break,
            Some(m) if m > horizon_ns => break,
            Some(m) => lookahead
                .map_or(u64::MAX, |l| m.saturating_add(l.as_nanos()))
                .min(horizon_ns),
        };

        // Phase D: advance every partition through the window. `run_until`
        // is inclusive, and any message generated at t <= w_end has
        // at >= M + L = w_end, so nothing injected next round lands in a
        // partition's past.
        for (i, (rank, sim)) in owned.iter_mut().enumerate() {
            let before = if hooks.telemetry {
                sim.events_processed()
            } else {
                0
            };
            let t0 = hooks.telemetry.then(std::time::Instant::now);
            sim.run_until(SimTime::from_nanos(w_end));
            if hooks.telemetry {
                let (deposited, injected, mailbox_max) = scratch[i];
                tele.push(WindowTelemetry {
                    window: round,
                    part: *rank,
                    w_end_ns: w_end,
                    events: sim.events_processed() - before,
                    deposited,
                    injected,
                    mailbox_max,
                    wheel_depth: sim.pending_events() as u64,
                    arena_live: sim.live_packets() as u64,
                    arena_hiwater: sim.arena_high_water() as u64,
                    wall_barrier_ns: wall_barrier.as_nanos() as u64,
                    wall_window_ns: t0.map_or(0, |t| t.elapsed().as_nanos() as u64),
                });
            }
            if let Some(probe) = hooks.progress {
                let done = probe(*rank, sim);
                coord.progress[*rank].store(done, Ordering::Relaxed);
            }
        }
        round += 1;
        last_w_end = w_end;
    }

    // Align clocks at the horizon (processes nothing: remaining events, if
    // any, are strictly beyond it) and extract results.
    let mut out = Vec::new();
    for (rank, sim) in &mut owned {
        if let Some(h) = horizon {
            sim.run_until(h);
        }
        let hygiene = sim.hygiene_report();
        out.push((*rank, finish(*rank, sim), hygiene));
    }
    coord
        .cross_messages
        .fetch_add(local_cross, Ordering::Relaxed);
    if hooks.telemetry {
        coord.telemetry.lock().unwrap().extend(tele);
    }
    let mut slots = slots.lock().unwrap();
    for (rank, result, hygiene) in out {
        slots[rank] = Some((result, hygiene));
    }
}

/// Hand every message of `batches` — indexed by source rank, each in that
/// source's emission order — to `inject` in the canonical
/// `(at, source rank, emission index)` order, leaving every batch empty
/// with its capacity. Portals with one delay emit in `at` order, so a batch
/// is almost always sorted already; one that is not (a source with portals
/// of different delays to this destination) is stably sorted by `at` first,
/// which keeps emission order among equal times. The k-way merge then
/// breaks `at` ties by the lowest source rank.
fn merge_batches<P, B>(batches: &mut [B], mut inject: impl FnMut(OutMsg<P>))
where
    P: Payload,
    B: std::ops::DerefMut<Target = Vec<OutMsg<P>>>,
{
    for b in batches.iter_mut() {
        if !b.is_sorted_by_key(|m| m.at) {
            b.sort_by_key(|m| m.at);
        }
    }
    let mut heads: Vec<_> = batches.iter_mut().map(|b| b.drain(..).peekable()).collect();
    loop {
        let mut next: Option<(usize, SimTime)> = None;
        for (src, head) in heads.iter_mut().enumerate() {
            if let Some(m) = head.peek() {
                if next.is_none_or(|(_, at)| m.at < at) {
                    next = Some((src, m.at));
                }
            }
        }
        let Some((src, _)) = next else { break };
        inject(heads[src].next().expect("peeked above"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkSpec;
    use crate::packet::FlowId;
    use crate::time::Rate;

    /// Counts arrivals and replies with a decremented hop budget until it
    /// hits zero, bouncing packets back through its egress link.
    struct Bouncer {
        egress: LinkId,
        arrivals: Vec<(u64, u64)>, // (t_ns, remaining hops)
    }

    impl Node<u64> for Bouncer {
        fn on_packet(&mut self, pkt: Packet<u64>, ctx: &mut Ctx<'_, u64>) {
            self.arrivals.push((ctx.now().as_nanos(), pkt.payload));
            if pkt.payload > 0 {
                let reply = Packet::new(pkt.flow, pkt.dst, pkt.src, pkt.size, pkt.payload - 1);
                ctx.send(self.egress, reply);
            }
        }
        fn on_timer(&mut self, _id: TimerId, _t: u64, _ctx: &mut Ctx<'_, u64>) {}
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    /// Two partitions, one bouncer each, wired symmetrically:
    /// bouncer -> zero-delay egress link -> portal (5 ms extra) -> peer.
    /// Layout per partition: node 0 = bouncer (ingress stub link 0),
    /// node 1 = portal, link 1 = egress.
    fn build_pingpong(rank: usize, handle: &mut ShardHandle<u64>) -> Simulator<u64> {
        let peer = 1 - rank;
        let mut sim: Simulator<u64> = Simulator::new(7 + rank as u64);
        let egress_guess = LinkId(1);
        let bouncer = sim.add_node(Box::new(Bouncer {
            egress: egress_guess,
            arrivals: Vec::new(),
        }));
        assert_eq!(bouncer, NodeId(0));
        // Link 0: ingress stub (stats anchor for injected arrivals).
        let ingress = sim.add_link(LinkSpec::drop_tail(
            bouncer,
            bouncer,
            Rate::from_gbps(1),
            SimDuration::ZERO,
            1 << 20,
        ));
        let portal = handle.add_portal(
            &mut sim,
            peer,
            bouncer,
            ingress,
            SimDuration::from_millis(5),
        );
        let egress = sim.add_link(LinkSpec::drop_tail(
            bouncer,
            portal,
            Rate::from_gbps(1),
            SimDuration::ZERO,
            1 << 20,
        ));
        assert_eq!(egress, egress_guess);
        // Partition 0 serves: one packet, 6 hops of budget.
        if rank == 0 {
            let pkt = Packet::new(FlowId(1), bouncer, bouncer, 1000, 6u64);
            sim.core().send_on(egress, pkt);
        }
        sim
    }

    fn run_pingpong(threads: usize) -> (Vec<Vec<(u64, u64)>>, ShardRun<()>) {
        let log: Mutex<Vec<Vec<(u64, u64)>>> = Mutex::new(vec![Vec::new(), Vec::new()]);
        let run = run_sharded(
            2,
            threads,
            None,
            build_pingpong,
            |rank, sim: &mut Simulator<u64>| {
                let b = sim.node_as::<Bouncer>(NodeId(0)).unwrap();
                log.lock().unwrap()[rank] = b.arrivals.clone();
            },
        );
        (log.into_inner().unwrap(), run)
    }

    #[test]
    fn pingpong_crosses_shards_on_schedule() {
        let (log, run) = run_pingpong(1);
        // 6 hops of budget -> 7 arrivals total, alternating partitions:
        // hop k arrives at k * (serialization + 5 ms). 1000 B at 1 Gbps
        // = 8 us serialization on the egress link.
        let hop_ns = 8_000 + 5_000_000;
        assert_eq!(log[1].len(), 4); // odd hops 1, 3, 5, 7 land on partition 1
        assert_eq!(log[0].len(), 3); // even hops 2, 4, 6 on partition 0
        for (i, &(t, budget)) in log[1].iter().enumerate() {
            let hop = (2 * i + 1) as u64;
            assert_eq!(t, hop * hop_ns, "hop {hop} arrival time");
            assert_eq!(budget, 7 - hop);
        }
        for (i, &(t, budget)) in log[0].iter().enumerate() {
            let hop = (2 * i + 2) as u64;
            assert_eq!(t, hop * hop_ns, "hop {hop} arrival time");
            assert_eq!(budget, 7 - hop);
        }
        assert_eq!(run.cross_messages, 7);
        let live: usize = run.hygiene.iter().map(|h| h.live_packets).sum();
        assert_eq!(live, 0, "cross-shard run must drain its arenas");
    }

    #[test]
    fn thread_count_is_invisible() {
        let (log1, run1) = run_pingpong(1);
        let (log2, run2) = run_pingpong(2);
        assert_eq!(log1, log2);
        assert_eq!(run1.rounds, run2.rounds);
        assert_eq!(run1.cross_messages, run2.cross_messages);
    }

    #[test]
    fn horizon_cuts_the_run_short() {
        // 5 ms per hop: a 12 ms horizon admits hops 1 and 2 only.
        let log: Mutex<Vec<Vec<(u64, u64)>>> = Mutex::new(vec![Vec::new(), Vec::new()]);
        let run = run_sharded(
            2,
            2,
            Some(SimTime::from_nanos(12_000_000)),
            build_pingpong,
            |rank, sim: &mut Simulator<u64>| {
                let b = sim.node_as::<Bouncer>(NodeId(0)).unwrap();
                log.lock().unwrap()[rank] = b.arrivals.clone();
            },
        );
        let log = log.into_inner().unwrap();
        assert_eq!(log[1].len(), 1);
        assert_eq!(log[0].len(), 1);
        // Hop 3 was cut off mid-flight: its packet sits in an arena.
        let live: usize = run.hygiene.iter().map(|h| h.live_packets).sum();
        assert!(live > 0, "horizon cut must strand the in-flight hop");
    }

    #[test]
    // The assert fires on a worker; `thread::scope` re-raises it under its
    // own message.
    #[should_panic(expected = "scoped thread panicked")]
    fn zero_lookahead_is_rejected() {
        run_sharded(
            2,
            1,
            None,
            |rank, handle: &mut ShardHandle<u64>| {
                let mut sim: Simulator<u64> = Simulator::new(rank as u64);
                let n = sim.add_node(Box::new(Bouncer {
                    egress: LinkId(0),
                    arrivals: Vec::new(),
                }));
                handle.add_portal(&mut sim, 1 - rank, n, LinkId(0), SimDuration::ZERO);
                sim
            },
            |_, _| (),
        );
    }

    /// Virtual-time view of a telemetry record — everything that must be
    /// byte-identical across thread counts (wall_* fields excluded).
    fn virtual_fields(t: &WindowTelemetry) -> (u64, usize, u64, u64, u64, u64, u64, u64, u64, u64) {
        (
            t.window,
            t.part,
            t.w_end_ns,
            t.events,
            t.deposited,
            t.injected,
            t.mailbox_max,
            t.wheel_depth,
            t.arena_live,
            t.arena_hiwater,
        )
    }

    #[test]
    fn telemetry_virtual_fields_are_thread_invariant() {
        let run_with = |threads: usize| {
            run_sharded_with(
                2,
                threads,
                None,
                ShardHooks {
                    telemetry: true,
                    ..ShardHooks::default()
                },
                build_pingpong,
                |_, _: &mut Simulator<u64>| (),
            )
        };
        let t1 = run_with(1).telemetry.expect("telemetry armed");
        let t2 = run_with(2).telemetry.expect("telemetry armed");
        assert!(!t1.is_empty());
        // Canonical order, one record per (window, part) that executed.
        for w in t1.windows(2) {
            assert!((w[0].window, w[0].part) < (w[1].window, w[1].part));
        }
        let v1: Vec<_> = t1.iter().map(virtual_fields).collect();
        let v2: Vec<_> = t2.iter().map(virtual_fields).collect();
        assert_eq!(v1, v2, "virtual telemetry must not see the thread count");
        // Sanity on content: windows fire events and the cross totals
        // reconcile with the run counters.
        let events: u64 = t1.iter().map(|t| t.events).sum();
        assert!(events > 0);
        let injected: u64 = t1.iter().map(|t| t.injected).sum();
        assert_eq!(injected, 7, "each hop crosses once");
    }

    #[test]
    fn telemetry_off_returns_none() {
        let (_, run) = run_pingpong(2);
        assert!(run.telemetry.is_none());
    }

    #[test]
    fn progress_probe_feeds_heartbeat() {
        let beats: Mutex<Vec<(u64, u64, u64)>> = Mutex::new(Vec::new());
        let beat_sink = |b: &Heartbeat| {
            beats.lock().unwrap().push((b.round, b.now_ns, b.done));
        };
        let probe = |_rank: usize, sim: &mut Simulator<u64>| {
            sim.node_as::<Bouncer>(NodeId(0)).unwrap().arrivals.len() as u64
        };
        let run = run_sharded_with(
            2,
            2,
            None,
            ShardHooks {
                telemetry: false,
                progress: Some(&probe),
                heartbeat: Some(&beat_sink),
            },
            build_pingpong,
            |_, _: &mut Simulator<u64>| (),
        );
        let beats = beats.into_inner().unwrap();
        // One beat per round after the first; rounds strictly increase and
        // done (total arrivals) is monotone, ending at the full 7.
        assert!(!beats.is_empty());
        for w in beats.windows(2) {
            assert!(w[0].0 < w[1].0, "rounds increase");
            assert!(w[0].1 <= w[1].1, "virtual time advances");
            assert!(w[0].2 <= w[1].2, "progress is monotone");
        }
        assert_eq!(beats.last().unwrap().2, 7);
        assert!(run.rounds as usize >= beats.len());
    }

    /// Sends one packet per timer on the link the token names; the payload
    /// is `rank * 100 + emission index`.
    struct Emitter {
        rank: u64,
        links: [LinkId; 2],
    }

    impl Node<u64> for Emitter {
        fn on_packet(&mut self, _pkt: Packet<u64>, _ctx: &mut Ctx<'_, u64>) {
            unreachable!("emitters only send");
        }
        fn on_timer(&mut self, _id: TimerId, token: u64, ctx: &mut Ctx<'_, u64>) {
            let (k, link) = (token >> 1, self.links[(token & 1) as usize]);
            let pkt = Packet::new(
                FlowId(self.rank),
                NodeId(0),
                NodeId(0),
                1000,
                self.rank * 100 + k,
            );
            ctx.send(link, pkt);
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    /// Records `(arrival ns, payload)` in firing order.
    #[derive(Default)]
    struct Logger {
        log: Vec<(u64, u64)>,
    }

    impl Node<u64> for Logger {
        fn on_packet(&mut self, pkt: Packet<u64>, ctx: &mut Ctx<'_, u64>) {
            self.log.push((ctx.now().as_nanos(), pkt.payload));
        }
        fn on_timer(&mut self, _id: TimerId, _t: u64, _ctx: &mut Ctx<'_, u64>) {}
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    /// Partitions 1..=3 each reach partition 0 through a 5 ms and a 6 ms
    /// portal, so a batch is in emission order but not in `at` order. Per
    /// source, in emission order: (send time in us, via the 6 ms portal).
    /// Source 1's head arrives after source 2's: a merge that trusted
    /// emission order would inject 2's 5.010 ms packet before 1's.
    const FAST_US: u64 = 5_000;
    const SLOW_US: u64 = 6_000;
    const FAN_IN: [&[(u64, bool)]; 4] = [
        &[],
        &[(1, true), (2, false)],
        &[(2, false), (3, true)],
        &[(1, true), (2, false), (1_001, false)],
    ];

    /// Builds partition `rank` of the [`FAN_IN`] scenario: a logger on
    /// partition 0, an emitter with two portals to it everywhere else.
    fn build_fan_in(rank: usize, handle: &mut ShardHandle<u64>) -> Simulator<u64> {
        let mut sim: Simulator<u64> = Simulator::new(rank as u64);
        let link = |sim: &mut Simulator<u64>, src, dst| {
            sim.add_link(LinkSpec::drop_tail(
                src,
                dst,
                Rate::from_gbps(1),
                SimDuration::ZERO,
                1 << 20,
            ))
        };
        if rank == 0 {
            let logger = sim.add_node(Box::new(Logger::default()));
            link(&mut sim, logger, logger); // ingress stub, LinkId(0)
            return sim;
        }
        let emitter = sim.add_node(Box::new(Emitter {
            rank: rank as u64,
            links: [LinkId(0); 2],
        }));
        let links = [FAST_US, SLOW_US].map(|us| {
            let delay = SimDuration::from_micros(us);
            let portal = handle.add_portal(&mut sim, 0, NodeId(0), LinkId(0), delay);
            link(&mut sim, emitter, portal)
        });
        sim.node_as_mut::<Emitter>(emitter).unwrap().links = links;
        for (k, &(t_us, slow)) in FAN_IN[rank].iter().enumerate() {
            let token = (k as u64) << 1 | slow as u64;
            sim.core()
                .set_timer(emitter, SimDuration::from_micros(t_us), token);
        }
        sim
    }

    #[test]
    fn batches_out_of_at_order_inject_in_canonical_order() {
        // The old injection order: every message tagged (at, source rank,
        // emission index) and sorted. 1000 B at 1 Gbps is 8 us on the wire.
        let mut expected: Vec<(u64, usize, usize, u64)> = Vec::new();
        for (src, msgs) in FAN_IN.iter().enumerate() {
            for (k, &(t_us, slow)) in msgs.iter().enumerate() {
                let at = (t_us + 8 + if slow { SLOW_US } else { FAST_US }) * 1_000;
                expected.push((at, src, k, (src * 100 + k) as u64));
            }
        }
        expected.sort();
        let expected: Vec<(u64, u64)> = expected.iter().map(|&(at, .., p)| (at, p)).collect();
        assert!(
            expected.windows(2).any(|w| w[0].0 == w[1].0),
            "the schedule must produce arrival-time ties"
        );
        for threads in [1, 2, 4] {
            let run = run_sharded(
                4,
                threads,
                None,
                build_fan_in,
                |rank, sim: &mut Simulator<u64>| {
                    (rank == 0).then(|| {
                        std::mem::take(&mut sim.node_as_mut::<Logger>(NodeId(0)).unwrap().log)
                    })
                },
            );
            assert_eq!(
                run.results[0].as_deref(),
                Some(&expected[..]),
                "{threads} threads"
            );
            assert_eq!(run.cross_messages, expected.len() as u64);
        }
    }

    #[test]
    fn telemetry_conserves_crossings() {
        let sent: usize = FAN_IN.iter().map(|msgs| msgs.len()).sum();
        let mut virtual_by_threads = Vec::new();
        for threads in [1, 2, 4] {
            let run = run_sharded_with(
                4,
                threads,
                None,
                ShardHooks {
                    telemetry: true,
                    ..ShardHooks::default()
                },
                build_fan_in,
                |_, _: &mut Simulator<u64>| (),
            );
            assert_eq!(run.cross_messages, sent as u64, "{threads} threads");
            let tele = run.telemetry.expect("telemetry armed");
            let mut total = 0;
            for window in tele.chunk_by(|a, b| a.window == b.window) {
                let deposited: u64 = window.iter().map(|t| t.deposited).sum();
                let injected: u64 = window.iter().map(|t| t.injected).sum();
                assert_eq!(
                    deposited, injected,
                    "window {} with {threads} threads: every message deposited \
                     at a barrier is injected at it",
                    window[0].window
                );
                total += injected;
            }
            assert_eq!(total, run.cross_messages, "{threads} threads");
            // Mail flows one way: the logger deposits nothing, the emitters
            // are injected nothing.
            assert!(tele.iter().all(|t| if t.part == 0 {
                t.deposited == 0
            } else {
                t.injected == 0
            }));
            virtual_by_threads.push(tele.iter().map(virtual_fields).collect::<Vec<_>>());
        }
        for v in &virtual_by_threads[1..] {
            assert_eq!(*v, virtual_by_threads[0]);
        }
    }

    #[test]
    fn portal_free_partitions_run_independently() {
        // No portals: lookahead is None, each partition drains in one
        // unbounded window.
        let run = run_sharded(
            3,
            2,
            None,
            |rank, _handle: &mut ShardHandle<u64>| {
                let mut sim: Simulator<u64> = Simulator::new(rank as u64);
                let n = sim.add_node(Box::new(Bouncer {
                    egress: LinkId(0),
                    arrivals: Vec::new(),
                }));
                let l = sim.add_link(LinkSpec::drop_tail(
                    n,
                    n,
                    Rate::from_gbps(1),
                    SimDuration::from_micros(10),
                    1 << 20,
                ));
                sim.core()
                    .send_on(l, Packet::new(FlowId(0), n, n, 500, 0u64));
                sim
            },
            |_, sim: &mut Simulator<u64>| sim.node_as::<Bouncer>(NodeId(0)).unwrap().arrivals.len(),
        );
        assert_eq!(run.results, vec![1, 1, 1]);
        assert_eq!(run.cross_messages, 0);
    }
}
