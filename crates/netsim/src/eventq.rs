//! The engine's event queue: a bucketed calendar queue (one rolling ring of
//! time buckets, drained a bucket at a time) with a heap behind it for the
//! far future, plus generation-stamped timer slots.
//!
//! The queue is a drop-in replacement for the `BinaryHeap<Reverse<_>>` the
//! engine started with, with the same total order — events fire strictly by
//! `(at, seq)` — but O(1) amortized push/pop for the near-future events that
//! dominate a simulation (serialization completions, propagation
//! deliveries, ACK clocking), instead of O(log n) sift operations. What it
//! holds is live: a packet event per packet on the wire and one wake-up per
//! timer slot ([`TimerSlots`]), not an entry per arming of a timer that is
//! restarted on every ACK.
//!
//! Since the packet-arena refactor the queue is also *payload-free*: packet
//! events carry a [`PacketHandle`] into the engine's arena, so an
//! [`EventEntry`] is a few `Copy` words regardless of the protocol payload,
//! and the whole structure is non-generic.
//!
//! Layout:
//!
//! - **Ring**: `N_BUCKETS` buckets of `2^W_SHIFT` ns each, rolling with the
//!   cursor: it covers the `N_BUCKETS` ticks (`at >> W_SHIFT`) starting at
//!   the cursor's, one turn of ~134 ms. An event that close lands in bucket
//!   `tick % N_BUCKETS`; bucket membership is tracked in a bitmap so
//!   advancing over empty buckets costs a trailing-zeros scan, not a
//!   per-bucket probe. Each bucket is a plain `Vec<EventEntry>`. A drained
//!   one hands its buffer to the queue's one spare list, and a bucket that
//!   takes its first entry takes the buffer drained last: the list keeps
//!   buffers of at most [`BUCKET_KEEP`] entries, and at most as many
//!   entries of capacity in all as are pending (or [`SPARSE_LIMIT`]), so
//!   what the queue retains follows its live population, not how many of
//!   its 1024 buckets were ever full. An earlier design chained entries
//!   through a shared slab to keep the queue at one allocation, but
//!   draining a chain is serial pointer-chasing — one dependent cache miss
//!   per entry once the population outgrows the LLC, which capped the
//!   whole engine near 4 M events/s. Contiguous buckets let the drain
//!   *stream*.
//! - **Batch drain**: when the cursor reaches an occupied bucket of at most
//!   [`SPLIT_ABOVE`] entries (a larger one splits, below), the whole
//!   bucket is sorted ascending by `(at, seq)` *in place* and then consumed
//!   through an advancing index — a drain moves nothing, and `pop`
//!   degenerates to a sequential read. (An intermediate design copied sort
//!   keys into a structure-of-arrays scratch; sorting the `Copy` bodies
//!   directly measured faster — the keys' extra write+read traffic
//!   outweighed the smaller sort moves.)
//! - **Split**: events scheduled into the cursor's own bucket after it was
//!   loaded are binary-inserted into the sorted run while it is short — a
//!   few-entry memmove. A bucket that holds more than [`SPLIT_ABOVE`]
//!   entries when the cursor reaches it, or whose run grows past that
//!   afterwards, is *split* instead: its entries are dealt into `N_SUBS`
//!   sub-buckets of `2^SUB_SHIFT` ns (occupancy in one `u64`), and the
//!   queue consumes the sub-buckets in order, sorting each into the run
//!   only when it reaches it. A push into the split bucket is appended to
//!   its sub-bucket, or binary-inserted into the run when it falls into
//!   the sub-bucket being consumed. This is the adaptive calendar queue's
//!   move (Brown's resize, the ladder queue's rungs) made local: only a
//!   bucket that proves dense is narrowed, so sparse workloads never pay
//!   for the finer width. Sub-buckets draw their buffers from the spare
//!   list and hand them back when they drain, like ring buckets; the
//!   split bucket's own buffer holds each sub-bucket's run in turn
//!   ([`EventQueue::split_pushes`] counts the pushes a split bucket takes;
//!   `tests/cursor_discipline.rs` uses the count to catch a cursor that got
//!   ahead of the clock, which sends *every* push into its own bucket).
//! - **Far heap**: events a full turn or more ahead of the cursor — RTO
//!   wake-ups, flow-start schedules, `FAR_FUTURE` sentinels — wait in a
//!   min-heap ordered by `(at, seq)`. Every cursor move ends by admitting
//!   to the ring the entries the turn now reaches, so a short flow's one far
//!   event, its RTO, costs a heap push and a heap pop and everything else
//!   it schedules never sees the heap.
//! - **Sparse mode**: a fresh queue allocates *nothing* and keeps every
//!   entry in one `Vec` sorted latest-first until the pending population
//!   crosses [`SPARSE_LIMIT`]; only then is the ring allocated and the
//!   run drained into it (a one-way migration). The queue holds live
//!   events only (see [`TimerSlots`]), so its population is the packets on
//!   the wire plus the armed timers: a few flows on one path — every case
//!   of a figure sweep or of `simcheck` — hold a few dozen. At that size an
//!   entry is written once: a push scans back from the tail, where the
//!   near-term events are (the far RTO wake-ups sit at the front, and a
//!   restarted timer rides its slot's entry instead of pushing), and shifts
//!   the few entries due before it; a pop is `Vec::pop`. A binary heap
//!   moved each 40-byte entry log n times on the way in and again on the
//!   way out, a quarter of a tiny simulation's time. Skipping the ring
//!   allocation (a Vec of Vecs plus its bitmap, 24 KB of zeroed headers
//!   per simulator) is the other half of the win; a congested dumbbell or
//!   the open-loop service mode holds hundreds and belongs on the ring.
//!   The run and the ring pop in the same `(at, seq)` order, so the
//!   migration point is observationally invisible.
//!
//! Three invariants carry the determinism proof: **every far entry is at
//! least one full turn ahead of the cursor**, hence later than every ring
//! entry (a push that close goes to the ring, and each cursor move admits
//! what it brought within reach before anything else is pushed), the cursor
//! never passes an occupied bucket or sub-bucket, and **the cursor never
//! leads the clock**, nor the sub-cursor of a split bucket — both move
//! only inside a pop, and a pop bounded by `until`
//! ([`EventQueue::pop_due`]) refuses to enter a bucket or sub-bucket that
//! starts after `until`, so the start of either is `<= now <=` every later
//! push and nothing is ever scheduled behind them. Together they mean the
//! pop sequence is exactly the ascending `(at, seq)` order — byte-identical
//! to the reference heap, which `tests/event_order.rs` checks against a
//! sorted-list model under randomized schedule/cancel/run-until workloads,
//! sparse and dense.

use crate::node::TimerId;
use crate::packet::{LinkId, NodeId, PacketHandle};
use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Bucket width: 2^17 ns = 131.072 us.
const W_SHIFT: u32 = 17;
/// Number of ring buckets; one turn spans `N_BUCKETS << W_SHIFT` ns
/// (~134 ms). Sized so one turn's population stays cache-resident even at
/// tens of thousands of pending events: pushes scatter randomly across the
/// turn's buckets, and bounding the turn bounds that working set. What a
/// short flow schedules beyond it is its RTO.
const N_BUCKETS: usize = 1024;
const IDX_MASK: usize = N_BUCKETS - 1;
/// A bucket holding more than this many entries when the cursor loads it,
/// or whose sorted run grows past it afterwards, is split into sub-buckets:
/// a mid-run `Vec::insert` memmove grows with run length, and sorting the
/// whole bucket up front costs O(k log k) where dealing it out costs O(k).
/// Below it a binary insert into the run is the cheapest thing there is.
const SPLIT_ABOVE: usize = 64;
/// Sub-bucket width: 2^11 ns = 2.048 us, so a bucket splits into
/// `N_SUBS` = 64 sub-buckets and their occupancy is one `u64`.
const SUB_SHIFT: u32 = W_SHIFT - 6;
const N_SUBS: usize = 1 << (W_SHIFT - SUB_SHIFT);
/// A drained bucket or sub-bucket buffer goes to the spare list only up to
/// this many entries; a larger one is handed back to the allocator. Dense
/// buckets regrow from a spare buffer each turn instead: keeping their
/// high-water fill measured slower and far larger on `sharded_dense`.
const BUCKET_KEEP: usize = 64;
/// Pending-entry threshold for leaving sparse mode: while fewer entries
/// are pending the queue is one sorted run and the ring stays
/// unallocated. Crossing it allocates the ring and drains the run into
/// it. The queue holds live events only — packets on the wire and one
/// wake-up per armed timer — so a few flows on one path stay below it for
/// their whole run, and anything that crosses it is a simulation the ring
/// is faster for. Measured end to end (EXPERIMENTS.md, "What the queue was
/// holding"):
/// 16 and 64 tie, 256 and 1024 keep congested dumbbells and the open-loop
/// service mode on a store hundreds deep (a sorted run that long pays for
/// its inserts: 128 and 256 re-measured at +3 to +7 % CPU on
/// `dumbbell_figures` and +12 % on `weather_halfback`), 0 charges every
/// tiny simulation for a ring it never fills.
const SPARSE_LIMIT: usize = 64;

/// Absolute bucket ordinal of a timestamp.
#[inline]
fn tick_of(at_ns: u64) -> u64 {
    at_ns >> W_SHIFT
}

/// Sub-bucket of a timestamp within its bucket.
#[inline]
fn sub_of(at: SimTime) -> usize {
    ((at.as_nanos() >> SUB_SHIFT) as usize) & (N_SUBS - 1)
}

/// Drained bucket and sub-bucket buffers, each of at most [`BUCKET_KEEP`]
/// entries, waiting for the next bucket or sub-bucket that takes its first
/// entry. Their total capacity is bounded by the queue's population, so
/// what the queue retains follows how many events are pending, not how
/// many buckets were ever full.
#[derive(Default)]
struct Spares {
    bufs: Vec<Vec<EventEntry>>,
    /// Total capacity of `bufs`, in entries.
    cap: usize,
}

impl Spares {
    /// Append `e` to a bucket or sub-bucket buffer, which takes a spare
    /// buffer first if it has none.
    #[inline]
    fn push_into(&mut self, v: &mut Vec<EventEntry>, e: EventEntry) {
        if v.capacity() == 0 {
            *v = self.take();
        }
        v.push(e);
    }

    /// The most recently drained buffer, or a new empty one.
    #[inline]
    fn take(&mut self) -> Vec<EventEntry> {
        let v = self.bufs.pop().unwrap_or_default();
        self.cap -= v.capacity();
        v
    }

    /// Take the drained buffer `v` unless it holds more than
    /// [`BUCKET_KEEP`] entries, then hand buffers back to the allocator
    /// until the list holds at most `pending` entries of capacity, or
    /// [`SPARSE_LIMIT`] (a dense queue has held more than that).
    #[inline]
    fn give_back(&mut self, v: &mut Vec<EventEntry>, pending: usize) {
        let mut v = std::mem::take(v);
        if (1..=BUCKET_KEEP).contains(&v.capacity()) {
            v.clear();
            self.cap += v.capacity();
            self.bufs.push(v);
        }
        let bound = pending.max(SPARSE_LIMIT);
        if self.cap > bound {
            self.trim(bound);
        }
    }

    /// Free buffers, the last drained first, until the list holds at most
    /// `bound` entries of capacity.
    #[cold]
    fn trim(&mut self, bound: usize) {
        while self.cap > bound {
            let v = self.bufs.pop().expect("spare capacity without a buffer");
            self.cap -= v.capacity();
        }
    }
}

#[derive(Clone, Copy)]
pub(crate) enum EventKind {
    /// A transmission on `link` ended with a packet queued behind it: the
    /// link takes its next packet. Carries the `(at, seq)` drawn for the
    /// end when the transmission started.
    LinkFree { link: LinkId },
    /// A packet arrives at a node after propagation. `link` is the link it
    /// travelled, carried so delivery can be accounted per link (the
    /// conservation oracles in `scenarios::simcheck` balance each link's
    /// books on arbitrary multi-hop topologies).
    Deliver {
        node: NodeId,
        link: LinkId,
        pkt: PacketHandle,
    },
    /// A wake-up for the timer slot of `id`, carrying the arming it was
    /// pushed for. If that arming is still the slot's it fires; if not, the
    /// slot says whether the entry moves on to a later arming or is dropped
    /// (see [`TimerSlots`]).
    Timer {
        node: NodeId,
        id: TimerId,
        token: u64,
    },
}

#[derive(Clone, Copy)]
pub(crate) struct EventEntry {
    pub(crate) at: SimTime,
    pub(crate) seq: u64,
    pub(crate) kind: EventKind,
}

impl PartialEq for EventEntry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for EventEntry {}
impl PartialOrd for EventEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for EventEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// The calendar queue. Total order: `(at, seq)` ascending.
pub(crate) struct EventQueue {
    /// Ring buckets. An empty one other than the cursor's has no buffer:
    /// a drained buffer goes to `spare`.
    ring: Vec<Vec<EventEntry>>,
    /// One bit per ring bucket: does it hold any entries?
    occupied: Vec<u64>,
    /// Entries across all ring buckets but the one being consumed.
    in_ring: usize,
    /// Index of the bucket the cursor last consumed from.
    cursor: usize,
    /// Start time of the cursor's bucket (multiple of the bucket width).
    /// Never later than the engine clock.
    cursor_time: u64,
    /// Consumption index into `ring[cursor]`, which after a refill is
    /// sorted ascending by `(at, seq)` *in place* — a drain moves nothing,
    /// `pop` is a sequential read, and consumed entries linger in the
    /// bucket's prefix until the next refill clears it. While the cursor's
    /// bucket is split, `ring[cursor]` holds sub-bucket `sub`'s entries.
    run_pos: usize,
    /// The cursor's bucket is split: the run holds sub-bucket `sub` and
    /// every later entry of the bucket waits, unsorted, in `subs`.
    split: bool,
    /// The sub-bucket the run holds while split (the sub-cursor).
    sub: usize,
    /// The split bucket's sub-buckets after `sub`; empty until the first
    /// split. An empty one has no buffer.
    subs: Vec<Vec<EventEntry>>,
    /// One bit per sub-bucket: does it hold any entries?
    sub_occupied: u64,
    /// Pushes into the cursor's bucket while it was split, the one that
    /// split it included: the always-on check that pushes land in the
    /// bucket being consumed only where buckets are dense.
    split_pushes: u64,
    /// Events a full turn of the ring or more ahead of the cursor. Empty in
    /// sparse mode.
    far: BinaryHeap<Reverse<EventEntry>>,
    /// Sparse mode's only store: every pending entry, sorted latest-first
    /// by `(at, seq)`, so the next one to pop is the last.
    sparse_run: Vec<EventEntry>,
    /// Total entries in the queue.
    len: usize,
    /// Drained buffers for the next bucket or sub-bucket to fill.
    spare: Spares,
    /// Still in sparse (sorted-run) mode; the ring is empty until the first
    /// [`SPARSE_LIMIT`] crossing densifies it. One-way.
    sparse: bool,
}

impl EventQueue {
    pub(crate) fn new() -> Self {
        EventQueue {
            ring: Vec::new(),
            occupied: Vec::new(),
            in_ring: 0,
            cursor: 0,
            cursor_time: 0,
            run_pos: 0,
            split: false,
            sub: 0,
            subs: Vec::new(),
            sub_occupied: 0,
            split_pushes: 0,
            far: BinaryHeap::new(),
            sparse_run: Vec::new(),
            len: 0,
            spare: Spares::default(),
            sparse: true,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Pushes into a split bucket since this queue was created.
    pub(crate) fn split_pushes(&self) -> u64 {
        self.split_pushes
    }

    /// Append `entry` to the ring bucket of its tick, which is less than a
    /// turn ahead of the cursor's.
    #[inline]
    fn bucket_insert(&mut self, entry: EventEntry) {
        let b = (tick_of(entry.at.as_nanos()) as usize) & IDX_MASK;
        let v = &mut self.ring[b];
        if v.capacity() == v.len() {
            if v.is_empty() {
                // The first entry: a spare buffer, if there is one.
                *v = self.spare.take();
            } else {
                // Skip the 8→16→32→… doubling ramp once a bucket outgrows
                // the buffer it started with: dense fills put dozens per
                // bucket and the ramp's reallocs dominate the push
                // cost. The first touch stays a plain push, so the
                // hundreds of tiny simulations in a figure sweep (one or
                // two events per bucket, bucket never revisited) don't pay
                // a 32-slot allocation per bucket they graze. Past that the
                // buffer grows by half, not double (`reserve` would
                // double): a thousand buckets each carry their own slack,
                // and at thousands of concurrent flows doubling costs ~5 %
                // of peak RSS for no measurable speed.
                v.reserve_exact(32.max(v.len() / 2));
            }
        }
        v.push(entry);
        self.occupied[b >> 6] |= 1 << (b & 63);
        self.in_ring += 1;
    }

    /// Insert an event. `now` is the engine clock: no entry popped so far
    /// is later than it and `entry.at >= now`. The cursor never leads the
    /// clock, so the entry lands at or ahead of the cursor — in a ring
    /// bucket or the far heap, or merged into the run being consumed when
    /// it falls into the cursor's own bucket.
    pub(crate) fn push(&mut self, now: SimTime, entry: EventEntry) {
        if self.sparse {
            if self.len < SPARSE_LIMIT {
                self.len += 1;
                // From the tail: what is scheduled now is due soon, and the
                // entries it has to pass are the few due sooner still.
                let key = (entry.at, entry.seq);
                let later = self.sparse_run.iter().rposition(|e| (e.at, e.seq) > key);
                self.sparse_run.insert(later.map_or(0, |i| i + 1), entry);
                return;
            }
            self.densify(now);
        } else if self.len == 0 {
            // An empty queue has nothing to keep in order, so the cursor
            // rejoins the clock: after an idle stretch longer than a turn
            // the next burst would otherwise all go to the far heap.
            self.retire_run();
            self.move_cursor(tick_of(now.as_nanos()));
        }
        self.len += 1;
        self.push_dense(now, entry);
    }

    /// Leave sparse mode: allocate the ring, put the cursor at the clock
    /// (the earliest pending entry may be a far timer, and later pushes
    /// land between the clock and it), and drain the run through the dense
    /// push path. Entries already counted in `len` keep their count; order
    /// is unchanged because the run and the ring pop in the same
    /// `(at, seq)` order.
    #[cold]
    fn densify(&mut self, now: SimTime) {
        self.sparse = false;
        self.ring = (0..N_BUCKETS).map(|_| Vec::new()).collect();
        self.occupied = vec![0u64; N_BUCKETS / 64];
        self.move_cursor(tick_of(now.as_nanos()));
        for e in std::mem::take(&mut self.sparse_run) {
            self.push_dense(now, e);
        }
    }

    /// Put the cursor on bucket `tick`, at or ahead of where it is, and
    /// admit to the ring every far entry the turn now reaches. Caller
    /// ensures the run is retired (which ends a split) and no ring bucket
    /// before `tick` is occupied.
    fn move_cursor(&mut self, tick: u64) {
        self.cursor_time = tick << W_SHIFT;
        self.cursor = (tick as usize) & IDX_MASK;
        while let Some(Reverse(head)) = self.far.peek() {
            if tick_of(head.at.as_nanos()) - tick >= N_BUCKETS as u64 {
                break;
            }
            let Reverse(e) = self.far.pop().unwrap();
            self.bucket_insert(e);
        }
    }

    fn push_dense(&mut self, now: SimTime, entry: EventEntry) {
        let at = entry.at.as_nanos();
        // Always on: an entry behind the cursor would sit in a bucket the
        // cursor has passed and fire a whole turn late.
        assert!(
            at >= self.cursor_time,
            "event at {at} ns scheduled behind the ring cursor ({} ns)",
            self.cursor_time
        );
        match tick_of(at) - tick_of(self.cursor_time) {
            0 => self.push_current(now, entry),
            // A turn ahead is the cursor's own bucket again: from there on,
            // the far heap.
            ahead if ahead < N_BUCKETS as u64 => self.bucket_insert(entry),
            _ => self.far.push(Reverse(entry)),
        }
    }

    /// An entry for the cursor's own bucket. A split bucket appends it to
    /// its sub-bucket unless that is the one the run holds; otherwise it is
    /// binary-inserted into the live tail of the run, which splits if that
    /// takes it past [`SPLIT_ABOVE`] — small simulations keep a few-entry
    /// memmove, deep buckets never pay an O(bucket) one.
    #[inline]
    fn push_current(&mut self, now: SimTime, entry: EventEntry) {
        if self.split {
            self.split_pushes += 1;
            let s = sub_of(entry.at);
            if s != self.sub {
                debug_assert!(s > self.sub, "event scheduled behind the sub-cursor");
                self.spare.push_into(&mut self.subs[s], entry);
                self.sub_occupied |= 1 << s;
                return;
            }
        }
        let run = &mut self.ring[self.cursor];
        if run.capacity() == 0 {
            *run = self.spare.take();
        }
        let key = (entry.at, entry.seq);
        let pos = self.run_pos + run[self.run_pos..].partition_point(|e| (e.at, e.seq) < key);
        run.insert(pos, entry);
        if !self.split && run.len() - self.run_pos > SPLIT_ABOVE {
            self.split_run(now);
        }
    }

    /// Allocate the sub-buckets on the first split.
    fn ensure_subs(&mut self) {
        if self.subs.is_empty() {
            self.subs = (0..N_SUBS).map(|_| Vec::new()).collect();
        }
    }

    /// Split the cursor's bucket, whose sorted run has grown past
    /// [`SPLIT_ABOVE`] live entries: the sub-cursor goes to the clock's
    /// sub-bucket, whose entries — a prefix of the live run, since nothing
    /// live is earlier than the clock — stay in the run, and the rest are
    /// dealt out.
    #[cold]
    fn split_run(&mut self, now: SimTime) {
        self.ensure_subs();
        self.split_pushes += 1;
        let sub = sub_of(now);
        let sub_end = self.cursor_time + ((sub as u64 + 1) << SUB_SHIFT);
        let run = &mut self.ring[self.cursor];
        let keep =
            self.run_pos + run[self.run_pos..].partition_point(|e| e.at.as_nanos() < sub_end);
        for e in run.drain(keep..) {
            let s = sub_of(e.at);
            self.spare.push_into(&mut self.subs[s], e);
            self.sub_occupied |= 1 << s;
        }
        self.split = true;
        self.sub = sub;
    }

    /// Split the bucket the cursor has just reached, which holds more than
    /// [`SPLIT_ABOVE`] entries, and load its first sub-bucket if that starts
    /// by `limit`. The sub-cursor starts at the bucket's start, which is
    /// not after `limit`.
    #[cold]
    fn split_bucket(&mut self, limit: u64) -> bool {
        self.ensure_subs();
        for e in self.ring[self.cursor].drain(..) {
            let s = sub_of(e.at);
            self.spare.push_into(&mut self.subs[s], e);
            self.sub_occupied |= 1 << s;
        }
        self.split = true;
        self.sub = 0;
        self.next_sub(limit)
    }

    /// Move the sub-cursor to the next occupied sub-bucket and sort it into
    /// the run — unless it starts after `limit`: then nothing moves.
    /// Returns `true` when a run was loaded. The entries are copied into
    /// the bucket's own buffer, a few dozen bytes, and the sub-bucket's
    /// buffer goes to the spare list: the bucket's buffer held the whole
    /// bucket, so inserts into any of its sub-bucket runs never regrow it,
    /// where a swap would free it at the first sub-bucket and grow a small
    /// one under the run's inserts. Caller ensures the run is empty and a
    /// sub-bucket is occupied.
    #[cold]
    fn next_sub(&mut self, limit: u64) -> bool {
        let k = self.sub_occupied.trailing_zeros() as usize;
        if self.cursor_time + ((k as u64) << SUB_SHIFT) > limit {
            return false;
        }
        self.sub_occupied &= !(1 << k);
        self.sub = k;
        self.run_pos = 0;
        let run = &mut self.ring[self.cursor];
        run.clear();
        run.extend_from_slice(&self.subs[k]);
        run.sort_unstable_by_key(|e| (e.at, e.seq));
        self.spare.give_back(&mut self.subs[k], self.len);
        true
    }

    /// Distance (0..N_BUCKETS) from the cursor's bucket to the next occupied
    /// one in ring order, its own included. Caller ensures there is one.
    fn next_occupied_distance(&self) -> usize {
        let n_words = self.occupied.len();
        let mut word_idx = self.cursor >> 6;
        let mut word = self.occupied[word_idx] & (!0u64 << (self.cursor & 63));
        for _ in 0..=n_words {
            if word != 0 {
                let idx = (word_idx << 6) + word.trailing_zeros() as usize;
                return (idx + N_BUCKETS - self.cursor) & IDX_MASK;
            }
            word_idx = (word_idx + 1) % n_words;
            word = self.occupied[word_idx];
        }
        unreachable!("no occupied bucket found in a ring promised non-empty");
    }

    /// Remaining entries in the current sorted run.
    #[inline]
    fn run_len(&self) -> usize {
        self.ring[self.cursor].len() - self.run_pos
    }

    /// Reclaim the cursor bucket once its run is consumed: the consumed
    /// entries still occupy it, all dead, and its buffer goes to the spare
    /// list. This ends a split.
    #[inline]
    fn retire_run(&mut self) {
        debug_assert!(self.run_len() == 0 && self.sub_occupied == 0);
        self.spare.give_back(&mut self.ring[self.cursor], self.len);
        self.run_pos = 0;
        self.split = false;
    }

    /// Advance the cursor to the next occupied bucket and sort that bucket
    /// in place into the new run, or split it if it is dense — unless it
    /// starts after `limit`: then the cursor stops short of it, at or before
    /// `limit`, with an empty run. In a split bucket, move to its next
    /// sub-bucket first, on the same terms. Returns `true` when a run was
    /// loaded. Caller ensures the run is empty.
    fn refill(&mut self, limit: u64) -> bool {
        if self.sub_occupied != 0 {
            return self.next_sub(limit);
        }
        self.retire_run();
        if self.in_ring == 0 {
            // Nothing within a turn: go to the far head's bucket, which
            // brings it into the ring, or as far towards it as `limit`
            // allows, so that what the caller schedules at its clamped
            // clock lands in the ring and not behind the far head in the
            // heap.
            let Some(Reverse(head)) = self.far.peek() else {
                return false;
            };
            // (`limit` is behind the cursor when a caller runs until an
            // instant its clock has passed.)
            let reach = limit.max(self.cursor_time);
            self.move_cursor(tick_of(head.at.as_nanos().min(reach)));
            if self.in_ring == 0 {
                return false;
            }
        }
        // Inclusive scan: after a jump the cursor's own bucket may hold
        // admitted entries (distance 0); in steady state it is empty (its
        // entries were drained), so the scan lands strictly ahead.
        let d = self.next_occupied_distance();
        let start = self.cursor_time + ((d as u64) << W_SHIFT);
        if start > limit {
            return false;
        }
        self.move_cursor(tick_of(start));
        let b = self.cursor;
        debug_assert!(!self.ring[b].is_empty(), "advanced to an empty bucket");
        self.occupied[b >> 6] &= !(1 << (b & 63));
        self.in_ring -= self.ring[b].len();
        if self.ring[b].len() > SPLIT_ABOVE {
            return self.split_bucket(limit);
        }
        self.ring[b].sort_unstable_by_key(|e| (e.at, e.seq));
        true
    }

    /// Time of the earliest entry, if any. A pure read — the cursor and
    /// the sub-cursor move only in a pop — so when the run is empty it
    /// scans the next occupied sub-bucket or bucket for its minimum, a few
    /// dozen entries.
    pub(crate) fn next_at(&self) -> Option<SimTime> {
        if self.sparse {
            return self.sparse_run.last().map(|e| e.at);
        }
        // The run is the earliest of the cursor bucket's entries, its later
        // sub-buckets are next, every other ring bucket is later, and the
        // far heap is later than all of the ring.
        if let Some(head) = self.ring[self.cursor].get(self.run_pos) {
            return Some(head.at);
        }
        if self.sub_occupied != 0 {
            let k = self.sub_occupied.trailing_zeros() as usize;
            return self.subs[k].iter().map(|e| e.at).min();
        }
        if self.in_ring > 0 {
            let d = self.next_occupied_distance();
            return self.ring[(self.cursor + d) & IDX_MASK]
                .iter()
                .map(|e| e.at)
                .min();
        }
        self.far.peek().map(|Reverse(e)| e.at)
    }

    /// Remove and return the earliest entry.
    pub(crate) fn pop(&mut self) -> Option<EventEntry> {
        if self.sparse {
            let e = self.sparse_run.pop()?;
            self.len -= 1;
            return Some(e);
        }
        self.pop_dense(u64::MAX)
    }

    /// Remove and return the earliest entry if it is due at or before
    /// `until`. On `None` the cursor is left at or before `until`, so a
    /// caller that clamps its clock to `until` can keep scheduling at the
    /// clock without landing behind the cursor.
    pub(crate) fn pop_due(&mut self, until: SimTime) -> Option<EventEntry> {
        if self.sparse {
            return match self.sparse_run.last() {
                Some(head) if head.at <= until => self.pop(),
                _ => None,
            };
        }
        self.pop_dense(until.as_nanos())
    }

    #[inline]
    fn pop_dense(&mut self, until: u64) -> Option<EventEntry> {
        // Everything not in the run is later than all of it, so the cursor
        // moves on only once the run is empty.
        if self.run_len() == 0 && !self.refill(until) {
            return None;
        }
        let e = self.ring[self.cursor][self.run_pos];
        if e.at.as_nanos() > until {
            return None;
        }
        self.len -= 1;
        self.run_pos += 1;
        Some(e)
    }

    /// Remove and return every pending entry in `(at, seq)` order, leaving
    /// the queue empty. The engine snapshot codec uses this to serialize
    /// the queue as a canonical sorted multiset — internal layout (sparse
    /// vs. dense, cursor position, splits) is never persisted,
    /// because pop order depends only on `(at, seq)` and rebuilding by
    /// re-pushing the sorted entries is observationally identical.
    pub(crate) fn drain_sorted(&mut self) -> Vec<EventEntry> {
        let mut out = Vec::with_capacity(self.len);
        while let Some(e) = self.pop() {
            out.push(e);
        }
        debug_assert!(out
            .windows(2)
            .all(|w| (w[0].at, w[0].seq) <= (w[1].at, w[1].seq)));
        out
    }
}

/// An arming that pushed no entry of its own and rides its slot's.
#[derive(Clone, Copy)]
struct Rider {
    /// `(at, seq)` it fires at.
    deadline: (SimTime, u64),
    node: NodeId,
    token: u64,
}

crate::snap_struct!(Rider {
    deadline,
    node,
    token
});

/// Generation-stamped timer slots: O(1) arm / cancel / fire with ABA-safe
/// id reuse, and one acting queue entry per slot however often its timer is
/// restarted.
///
/// A [`TimerId`] packs `(generation << 32) | slot`. A slot's generation is
/// odd while armed and even while free; arming bumps it to odd and
/// disarming (fire or cancel) bumps it to even, so a stale id fails the
/// generation match in O(1) — no hash set, no per-cancel heap surgery.
///
/// A `Timer` queue entry is a *wake-up for its slot*. It carries the arming
/// it was pushed for, and fires it if that is still the slot's arming — the
/// whole story for a timer that is never cancelled. Cancelling leaves the
/// entry where it is. The free list is LIFO, so the cancel-then-arm of an
/// RTO restart lands on the slot it just freed; if that slot's entry is
/// still queued at or before the new deadline, the new arming *rides* it:
/// it records `(deadline, seq, node, token)` in the slot and pushes
/// nothing. When the entry pops, its own arming is gone, so it asks the
/// slot: armed, by a rider — the entry goes back into the queue as that
/// arming, under its `(at, seq)`; free — the entry is dropped. Every arming
/// draws its `seq` when it is armed, whether or not it pushes, so each live
/// timer fires at exactly the `(at, seq)` it would have had with one entry
/// per arming, and the queue holds one entry per slot instead of one per
/// restart. Entries that pop with nothing to do are counted by the engine
/// ([`crate::engine::Simulator::dead_timer_pops`]): one for a slot
/// cancelled and left alone, one for each entry displaced by an arming
/// *earlier* than it (which has to push its own).
#[derive(Default)]
pub(crate) struct TimerSlots {
    /// Per slot. All a timer that is armed once and fires ever touches
    /// when it pops.
    gens: Vec<u32>,
    /// Per slot: `(at, seq)` of its acting queue entry, the last one pushed
    /// for it. Still queued if `at` is later than the clock.
    wake: Vec<(SimTime, u64)>,
    /// Per slot that was ever ridden: the arming riding its acting entry —
    /// the slot's current one, if that pushed no entry.
    riders: Vec<Rider>,
    free: Vec<u32>,
    live: usize,
}

// Checkpointed bit-exactly: generations (ABA safety for ids still held by
// queue entries and host state), each slot's acting entry and rider, the
// live count, and the free list in its LIFO order — recycled slots must
// come back in the same order after a restore, or re-armed [`TimerId`]s
// diverge from the uninterrupted run.
crate::snap_struct!(TimerSlots {
    gens,
    wake,
    riders,
    free,
    live
});

/// `(slot, generation)` of a timer id.
fn slot_of(id: TimerId) -> (usize, u32) {
    ((id.0 & 0xFFFF_FFFF) as usize, (id.0 >> 32) as u32)
}

fn timer_id(slot: usize, gen: u32) -> TimerId {
    TimerId(((gen as u64) << 32) | slot as u64)
}

impl TimerSlots {
    pub(crate) fn new() -> Self {
        TimerSlots::default()
    }

    /// Number of currently armed timers.
    pub(crate) fn live(&self) -> usize {
        self.live
    }

    /// Arm a timer for `node` to fire at `(at, seq)`; `now` is the clock.
    /// Returns its id and whether the caller must push an entry for it —
    /// not when the slot's entry is still queued at or before `at` (its
    /// `seq` is older, so it pops first). An entry due at `now` may have
    /// popped already and is not relied on.
    pub(crate) fn arm(
        &mut self,
        now: SimTime,
        node: NodeId,
        token: u64,
        at: SimTime,
        seq: u64,
    ) -> (TimerId, bool) {
        let idx = self.free.pop().unwrap_or_else(|| {
            self.gens.push(0);
            self.wake.push((SimTime::ZERO, 0));
            (self.gens.len() - 1) as u32
        }) as usize;
        let gen = &mut self.gens[idx];
        *gen += 1; // odd: armed
        debug_assert!(*gen & 1 == 1);
        let id = timer_id(idx, *gen);
        self.live += 1;
        let wake = &mut self.wake[idx];
        let rides = now < wake.0 && wake.0 <= at;
        if rides {
            let rider = Rider {
                deadline: (at, seq),
                node,
                token,
            };
            if self.riders.len() <= idx {
                self.riders.resize(idx + 1, rider);
            }
            self.riders[idx] = rider;
        } else {
            *wake = (at, seq);
        }
        (id, !rides)
    }

    /// Disarm `id` (cancel or fire). Returns `true` if it was armed; a
    /// second disarm of the same id — or of a recycled slot's older
    /// generation — is a no-op returning `false`. The slot's queue entry
    /// stays where it is, for the slot's next arming to ride.
    pub(crate) fn disarm(&mut self, id: TimerId) -> bool {
        let (idx, gen) = slot_of(id);
        if idx < self.gens.len() && self.gens[idx] == gen {
            self.gens[idx] += 1; // even: free
            self.free.push(idx as u32);
            self.live -= 1;
            true
        } else {
            false
        }
    }

    /// The queue popped the entry `(at, seq)` pushed for arming `id`, and
    /// that arming is gone ([`TimerSlots::disarm`] said so): if the slot is
    /// armed for a later `(at, seq)` that pushed no entry of its own and
    /// rides this one, the entry to put back into the queue for it; `None`
    /// if the slot is free or a newer entry has taken this one's place.
    #[cold]
    pub(crate) fn requeue(&mut self, id: TimerId, at: SimTime, seq: u64) -> Option<EventEntry> {
        // Armed and this entry the acting one means armed by a rider: an
        // arming that pushed an entry is fired by it. (`get`: ids in a
        // damaged checkpoint can name slots that do not exist.)
        let (idx, _) = slot_of(id);
        let gen = *self.gens.get(idx)?;
        if gen & 1 == 0 || self.wake.get(idx) != Some(&(at, seq)) {
            return None;
        }
        let rider = *self.riders.get(idx)?;
        debug_assert!(rider.deadline > (at, seq), "entry queued after its rider");
        self.wake[idx] = rider.deadline;
        Some(EventEntry {
            at: rider.deadline.0,
            seq: rider.deadline.1,
            kind: EventKind::Timer {
                node: rider.node,
                id: timer_id(idx, gen),
                token: rider.token,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bucket width in nanoseconds.
    const WIDTH: u64 = 1 << W_SHIFT;
    /// One turn of the ring in nanoseconds.
    const TURN_NS: u64 = (N_BUCKETS as u64) << W_SHIFT;

    /// The clock of a test that pushes everything before its first pop.
    const T0: SimTime = SimTime::ZERO;

    fn entry(at_ns: u64, seq: u64) -> EventEntry {
        EventEntry {
            at: SimTime::from_nanos(at_ns),
            seq,
            kind: EventKind::Timer {
                node: NodeId(0),
                id: TimerId(0),
                token: seq,
            },
        }
    }

    /// A sparse push shifts whole entries and a dense bucket is sorted by
    /// moving them: the entry stays five words.
    #[test]
    fn event_entry_keeps_its_size() {
        assert!(std::mem::size_of::<EventEntry>() <= 40);
    }

    #[test]
    #[ignore = "manual perf probe"]
    fn raw_throughput_probe() {
        for (label, n, spread) in [
            ("1e5/1e8", 100_000u64, 100_000_000u64),
            ("1e6/1e9", 1_000_000, 1_000_000_000),
            ("1e6/6e10", 1_000_000, 60_000_000_000),
        ] {
            let mut q = EventQueue::new();
            let mut lcg: u64 = 0x9e3779b97f4a7c15;
            let t0 = std::time::Instant::now();
            for seq in 0..n {
                lcg = lcg
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                q.push(T0, entry((lcg >> 16) % spread + 1, seq));
            }
            let push_t = t0.elapsed();
            let t1 = std::time::Instant::now();
            let mut popped = 0u64;
            while q.pop().is_some() {
                popped += 1;
            }
            let pop_t = t1.elapsed();
            assert_eq!(popped, n);
            let total = push_t + pop_t;
            eprintln!(
                "{label}: push {:?} pop {:?} total {:?} => {:.2} M ev/s",
                push_t,
                pop_t,
                total,
                n as f64 / total.as_secs_f64() / 1e6
            );
        }
    }

    #[test]
    fn pops_in_at_seq_order_across_window_boundaries() {
        let mut q = EventQueue::new();
        // A spread from sub-bucket to the end of time: same bucket,
        // neighbours, either side of one turn (the last ring bucket, the
        // first far entry), turns later, and the FAR_FUTURE sentinel.
        let times = [
            0u64,
            1,
            100,
            WIDTH - 1,
            WIDTH,
            TURN_NS - 1,
            TURN_NS,
            TURN_NS + 1,
            3 * TURN_NS + 17,
            60_000_000_000,
            4096 * TURN_NS - 1,
            4096 * TURN_NS,
            3 * 4096 * TURN_NS + 99,
            u64::MAX,
        ];
        let mut seq = 0u64;
        let mut expect: Vec<(u64, u64)> = Vec::new();
        for &t in &times {
            for _ in 0..3 {
                q.push(T0, entry(t, seq));
                expect.push((t, seq));
                seq += 1;
            }
        }
        expect.sort_unstable();
        let mut got = Vec::new();
        while let Some(e) = q.pop() {
            got.push((e.at.as_nanos(), e.seq));
        }
        assert_eq!(got, expect);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn next_at_matches_pop() {
        // Sparse first, then past SPARSE_LIMIT so the dense query walks the
        // run, the ring and the far heap as the queue drains, then enough
        // that the buckets split and it walks the sub-buckets too.
        for n in [6u64, 2 * SPARSE_LIMIT as u64, 3_000] {
            let mut q = EventQueue::new();
            // At 3,000 the groups of six crowd into a few buckets.
            let span = if n > 1_000 { 400_000 } else { u64::MAX };
            for (i, &t) in [5u64, TURN_NS + 5, 3, 3, 80_000, 9_000 * TURN_NS]
                .iter()
                .cycle()
                .take(n as usize)
                .enumerate()
            {
                q.push(T0, entry(t + (i as u64 / 6) * 1_000_003 % span, i as u64));
            }
            assert_eq!(q.len() as u64, n);
            while q.len() > 0 {
                let cursor = (q.cursor, q.cursor_time, q.sub, q.run_pos);
                let next = q.next_at().unwrap();
                assert_eq!(
                    cursor,
                    (q.cursor, q.cursor_time, q.sub, q.run_pos),
                    "query moved the cursor"
                );
                assert_eq!(next, q.pop().unwrap().at);
            }
            assert!(q.next_at().is_none());
            assert_eq!(q.split_pushes() > 0, n > 1_000);
        }

        // One bucket of 100 entries dealt round-robin into four sub-buckets,
        // the latest pushed first: it splits when the cursor reaches it, and
        // each time a sub-bucket's run drains, several later ones are
        // occupied and the head is the earliest entry of the lowest.
        let mut q = EventQueue::new();
        let (base, sub_ns) = (5 * WIDTH, 1u64 << SUB_SHIFT);
        for i in (0..100u64).rev() {
            q.push(T0, entry(base + (i % 4) * sub_ns + i, i));
        }
        let mut between_subs = 0;
        while q.len() > 0 {
            let drained = q.ring[q.cursor].get(q.run_pos).is_none();
            if drained && q.sub_occupied.count_ones() >= 2 {
                between_subs += 1;
            }
            assert_eq!(q.next_at().unwrap(), q.pop().unwrap().at);
        }
        assert_eq!(between_subs, 2, "the bucket did not split four ways");
    }

    #[test]
    fn interleaved_push_pop_respects_order() {
        let mut q = EventQueue::new();
        let mut now = 0u64;
        let mut fired: Vec<(u64, u64)> = Vec::new();
        // Schedule relative to the last fired time, like dispatch does;
        // the round number doubles as the scheduling sequence. The spread
        // hits the same bucket, nearby buckets, the far side of the ring
        // and the far heap (120 ms, 3_000 s).
        for round in 0..5_000u64 {
            let spread = [1, 700, 9_000, 2_000_000, 120_000_000, 3_000_000_000_000];
            let d = spread[(round % 6) as usize] + (round * 37) % 977;
            q.push(SimTime::from_nanos(now), entry(now + d, round));
            if round % 3 == 0 {
                if let Some(e) = q.pop() {
                    assert!(e.at.as_nanos() >= now, "time went backwards");
                    now = e.at.as_nanos();
                    fired.push((now, e.seq));
                }
            }
        }
        while let Some(e) = q.pop() {
            assert!(e.at.as_nanos() >= now);
            now = e.at.as_nanos();
            fired.push((now, e.seq));
        }
        assert_eq!(fired.len(), 5_000);
        let mut sorted = fired.clone();
        sorted.sort_unstable();
        assert_eq!(fired, sorted, "pop order must be (at, seq) ascending");
    }

    #[test]
    fn far_heap_preserves_order_at_scale() {
        // A dense population spread over ~100 turns: all but the first
        // turn's entries wait in the far heap and are admitted to the ring
        // as the cursor advances.
        let mut q = EventQueue::new();
        let mut lcg: u64 = 0x9e3779b97f4a7c15;
        let n = 50_000u64;
        for seq in 0..n {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            q.push(T0, entry((lcg >> 16) % (100 * TURN_NS), seq));
        }
        let mut prev = (0u64, 0u64);
        let mut count = 0u64;
        while let Some(e) = q.pop() {
            let k = (e.at.as_nanos(), e.seq);
            assert!(k > prev || count == 0, "order violated at {k:?}");
            prev = k;
            count += 1;
        }
        assert_eq!(count, n);
    }

    #[test]
    fn sparse_mode_pops_in_order_without_densifying() {
        let mut q = EventQueue::new();
        // Descending times, well under SPARSE_LIMIT: the queue must stay
        // sparse (ring unallocated) and still pop ascending.
        for seq in 0..50u64 {
            q.push(T0, entry((50 - seq) * 1_000, seq));
        }
        assert!(q.sparse);
        assert!(q.ring.is_empty(), "sparse queue must not allocate the ring");
        assert!(
            q.far.is_empty(),
            "the sorted run is sparse mode's one store"
        );
        let mut prev = 0u64;
        while let Some(e) = q.pop() {
            assert!(e.at.as_nanos() >= prev);
            prev = e.at.as_nanos();
        }
        assert!(q.sparse, "popping must never densify");
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn densify_crossing_preserves_order() {
        // Fill past SPARSE_LIMIT after consuming a prefix, so the migration
        // happens with a non-zero clock and a mix of near/far entries; the
        // cursor anchors at the clock, and pushes after the crossing land
        // between it and the earliest pending entry. The pop sequence must
        // be (at, seq) ascending throughout, exactly as if the queue had
        // been dense from birth.
        let mut q = EventQueue::new();
        let mut seq = 0u64;
        let mut now = T0;
        let mut expect: Vec<(u64, u64)> = Vec::new();
        let mut push = |q: &mut EventQueue, now: SimTime, at: u64, expect: &mut Vec<_>| {
            q.push(now, entry(at, seq));
            expect.push((at, seq));
            seq += 1;
        };
        for i in 0..SPARSE_LIMIT as u64 {
            push(&mut q, now, 10_000 + i * 7_919 % 50_000, &mut expect);
        }
        // Consume a few so the heap has seen pops before densifying.
        for _ in 0..10 {
            let e = q.pop().unwrap();
            now = e.at;
            let pos = expect
                .iter()
                .position(|&(at, s)| (at, s) == (e.at.as_nanos(), e.seq))
                .unwrap();
            expect.remove(pos);
        }
        assert!(q.sparse);
        // Blow past the limit with a spread covering the ring and the far
        // heap, latest first: the earliest pending entry at the crossing is far
        // from the clock.
        for i in (0..2_048u64).rev() {
            let at = now.as_nanos() + (i * 104_729) % (120 * TURN_NS);
            push(&mut q, now, at, &mut expect);
        }
        assert!(!q.sparse, "limit crossing must densify");
        assert!(
            q.cursor_time <= now.as_nanos(),
            "anchored ahead of the clock"
        );
        expect.sort_unstable();
        let mut got = Vec::new();
        while let Some(e) = q.pop() {
            got.push((e.at.as_nanos(), e.seq));
        }
        assert_eq!(got, expect);
    }

    #[test]
    fn bounded_pop_leaves_the_cursor_at_or_before_the_bound() {
        // Near entries, then nothing until a timer several turns out, then
        // nothing until one thousands of turns out.
        let mut q = EventQueue::new();
        let near = 2 * SPARSE_LIMIT as u64;
        for seq in 0..near {
            q.push(T0, entry(seq * 50, seq));
        }
        let mid_at = 7 * TURN_NS + 12_345;
        let far_at = 9_000 * TURN_NS + 99;
        q.push(T0, entry(mid_at, near));
        q.push(T0, entry(far_at, near + 1));
        assert!(!q.sparse);
        let mut seq = near + 2;
        let mut popped = 0u64;
        // Each bound stops in an idle gap: inside the first turn, turns
        // before the middle timer, in its bucket's turn but before it,
        // between it and the far one, and past all.
        for until in [
            near * 50 + 7,
            3 * TURN_NS + 5,
            7 * TURN_NS + 1,
            5_000 * TURN_NS,
            far_at + TURN_NS,
        ] {
            while let Some(e) = q.pop_due(SimTime::from_nanos(until)) {
                assert!(e.at.as_nanos() <= until);
                popped += 1;
            }
            assert!(
                q.cursor_time <= until,
                "cursor at {} ns leads the bound {until} ns",
                q.cursor_time
            );
            assert!(q.next_at().is_none_or(|at| at.as_nanos() > until));
            // A burst scheduled at the clamped clock goes to the ring,
            // however long the gap it was clamped into, and comes straight
            // back out, in order, with no cursor motion past the bound.
            let waiting = q.far.len();
            for k in 0..200u64 {
                q.push(SimTime::from_nanos(until), entry(until + k % 3, seq));
                seq += 1;
            }
            assert_eq!(q.far.len(), waiting, "burst went to the far heap");
            let mut prev = None;
            while let Some(e) = q.pop_due(SimTime::from_nanos(until + 2)) {
                assert!(Some((e.at, e.seq)) > prev, "order violated at {}", e.seq);
                prev = Some((e.at, e.seq));
                popped += 1;
            }
        }
        assert_eq!(popped, seq);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn empty_dense_queue_reanchors_at_the_clock() {
        let mut q = EventQueue::new();
        for seq in 0..2 * SPARSE_LIMIT as u64 {
            q.push(T0, entry(seq, seq));
        }
        while q.pop().is_some() {}
        assert!(!q.sparse);
        // An idle stretch longer than a turn: without the re-anchor the
        // burst would be out of the ring's reach.
        let now = 9_000 * TURN_NS + 17;
        for seq in 0..100u64 {
            q.push(SimTime::from_nanos(now), entry(now + seq * 1_000, seq));
        }
        assert!(q.far.is_empty(), "burst went to the far heap");
        assert_eq!(q.cursor_time, (now >> W_SHIFT) << W_SHIFT);
        for seq in 0..100u64 {
            assert_eq!(q.pop().unwrap().seq, seq);
        }
    }

    /// What the queue retains apart from the entries it holds: every empty
    /// bucket and sub-bucket but the cursor's bucket has no buffer, and the
    /// spare list holds empty buffers of at most [`BUCKET_KEEP`] entries,
    /// whose total capacity is at most the entries the ring holds — the
    /// pending ones plus the consumed prefix of the run, which lingers until
    /// the next refill — or [`SPARSE_LIMIT`].
    fn assert_retention_bounded(q: &EventQueue) {
        for (b, v) in q.ring.iter().enumerate() {
            assert!(
                b == q.cursor || !v.is_empty() || v.capacity() == 0,
                "empty ring bucket {b} kept a buffer of {} entries",
                v.capacity()
            );
        }
        for (s, v) in q.subs.iter().enumerate() {
            assert!(
                !v.is_empty() || v.capacity() == 0,
                "empty sub-bucket {s} kept a buffer of {} entries",
                v.capacity()
            );
        }
        for v in &q.spare.bufs {
            assert!(v.is_empty() && (1..=BUCKET_KEEP).contains(&v.capacity()));
        }
        let cap: usize = q.spare.bufs.iter().map(Vec::capacity).sum();
        assert_eq!(cap, q.spare.cap);
        assert!(
            cap <= (q.len + q.run_pos).max(SPARSE_LIMIT),
            "spare list holds {cap} entries of capacity for {} pending",
            q.len
        );
    }

    #[test]
    fn a_drained_buffer_is_reused_by_the_next_bucket_to_fill() {
        // Dense: a crowd a few buckets out, eight entries in bucket 1 and
        // one in bucket 2, so the pop that reaches bucket 2 retires bucket 1.
        let mut q = EventQueue::new();
        for seq in 0..2 * SPARSE_LIMIT as u64 {
            q.push(T0, entry(9 * WIDTH + seq, seq));
        }
        for seq in 0..8u64 {
            q.push(T0, entry(WIDTH + seq, 1 << 32 | seq));
        }
        q.push(T0, entry(2 * WIDTH, 2 << 32));
        assert!(!q.sparse);
        let (buf, cap) = (q.ring[1].as_ptr(), q.ring[1].capacity());
        assert!((8..=BUCKET_KEEP).contains(&cap));
        for _ in 0..9 {
            q.pop().unwrap();
        }
        assert_eq!(
            q.ring[1].capacity(),
            0,
            "the drained bucket kept its buffer"
        );
        assert_eq!(q.spare.bufs.last().map(|v| v.as_ptr()), Some(buf));
        // The next bucket to take its first entry takes that very buffer.
        q.push(SimTime::from_nanos(2 * WIDTH), entry(5 * WIDTH, 3 << 32));
        assert_eq!(q.ring[5].as_ptr(), buf);
        assert_eq!(q.ring[5].capacity(), cap);
        assert_eq!(q.spare.cap, 0);
        assert_retention_bounded(&q);
    }

    #[test]
    fn dense_buckets_split_and_pop_in_order_under_bounded_pops() {
        // Buckets of ~200 entries, so every one splits when the cursor
        // reaches it, and the pushes made while they are consumed land in
        // the sub-bucket being consumed, in later ones and past the bucket.
        // Bounded pops stop inside sub-buckets and on their edges.
        let mut q = EventQueue::new();
        let mut expect: Vec<(u64, u64)> = Vec::new();
        let mut seq = 0u64;
        for i in 0..4_000u64 {
            let at = (i * 7_919) % (20 * WIDTH);
            q.push(T0, entry(at, seq));
            expect.push((at, seq));
            seq += 1;
        }
        let sub_w = 1u64 << SUB_SHIFT;
        let mut now = 0u64;
        let mut got = Vec::new();
        for round in 0..2_000u64 {
            let until = match round % 3 {
                0 => (now / sub_w + 1) * sub_w,
                1 => (now / sub_w + 1) * sub_w - 1,
                _ => now + round % 700,
            };
            while let Some(e) = q.pop_due(SimTime::from_nanos(until)) {
                assert!(e.at.as_nanos() <= until);
                got.push((e.at.as_nanos(), e.seq));
            }
            now = until;
            assert!(q.cursor_time <= now);
            assert!(!q.split || q.cursor_time + ((q.sub as u64) << SUB_SHIFT) <= now);
            for d in [0, 1, sub_w - 1, sub_w, 3 * sub_w + 5, WIDTH] {
                let at = now + d + round % 3;
                q.push(SimTime::from_nanos(now), entry(at, seq));
                expect.push((at, seq));
                seq += 1;
            }
        }
        assert!(q.split_pushes() > 0, "no push landed in a split bucket");
        while let Some(e) = q.pop() {
            got.push((e.at.as_nanos(), e.seq));
        }
        expect.sort_unstable();
        assert!(got == expect, "pop order diverged from the sorted list");
    }

    #[test]
    fn a_drained_dense_era_leaves_at_most_the_floor() {
        // ~20 K entries in one turn, ~200 to each of the first 100 buckets,
        // so every one of them splits, with a thousand due at one instant in
        // a single sub-bucket; while they drain, pushes land in the
        // buckets being consumed.
        let mut q = EventQueue::new();
        let mut seq = 0u64;
        for i in 0..19_000u64 {
            q.push(T0, entry((i * 7_919) % (100 * WIDTH), seq));
            seq += 1;
        }
        for _ in 0..1_000 {
            q.push(T0, entry(50 * WIDTH + 3, seq));
            seq += 1;
        }
        let mut popped = 0u64;
        while let Some(e) = q.pop() {
            popped += 1;
            let now = e.at.as_nanos();
            if popped.is_multiple_of(3) && now + WIDTH < 99 * WIDTH {
                q.push(e.at, entry(now + popped % 4_000, seq));
                seq += 1;
            }
        }
        assert_eq!(popped, seq);
        assert!(q.split_pushes() > 0);
        // Every bucket and sub-bucket handed its buffer back, and the spare
        // list kept no more than the floor of them.
        let retained: usize = q
            .ring
            .iter()
            .chain(&q.subs)
            .chain(&q.spare.bufs)
            .map(Vec::capacity)
            .sum();
        assert_eq!(retained, q.spare.cap);
        assert!(
            retained <= SPARSE_LIMIT,
            "a drained queue kept {retained} entries of capacity"
        );
        assert_retention_bounded(&q);
    }

    #[test]
    fn retention_follows_the_population_under_random_dense_load() {
        // The population swells into the tens of thousands, where buckets
        // split, and ebbs to a few dozen, three times over; pushes land in
        // the run, its sub-buckets, the ring and the far heap. The bound
        // holds after every push and pop, and the pops stay in order.
        let mut q = EventQueue::new();
        let mut lcg: u64 = 0x2545_f491_4f6c_dd1d;
        let mut draw = |m: u64| {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (lcg >> 20) % m
        };
        let (mut now, mut seq, mut prev) = (0u64, 0u64, None);
        for target in [20_000usize, 40, 5_000, 10, 30_000, 0] {
            while q.len() != target {
                if q.len() < target && draw(8) != 0 {
                    let d = match draw(4) {
                        0 => draw(1 << SUB_SHIFT),
                        1 => draw(20 * WIDTH),
                        2 => draw(TURN_NS),
                        _ => draw(3 * TURN_NS),
                    };
                    q.push(SimTime::from_nanos(now), entry(now + d, seq));
                    seq += 1;
                } else if let Some(e) = q.pop() {
                    assert!(Some((e.at, e.seq)) > prev, "order violated at {}", e.seq);
                    prev = Some((e.at, e.seq));
                    now = e.at.as_nanos();
                }
                assert_retention_bounded(&q);
            }
        }
        assert!(q.split_pushes() > 0, "no bucket split");
        assert!(q.pop().is_none());
        assert_retention_bounded(&q);
    }

    #[test]
    fn one_turn_ahead_goes_to_the_far_heap() {
        // The ring reaches N_BUCKETS - 1 ticks past the cursor's; one whole
        // turn ahead would be the cursor's own bucket again and waits in
        // the far heap, wherever in the ring the cursor is.
        for cursor_tick in [0u64, 1, 700, N_BUCKETS as u64 - 1, 5 * N_BUCKETS as u64 + 3] {
            let mut q = EventQueue::new();
            let now = cursor_tick * WIDTH + 9;
            let near = 2 * SPARSE_LIMIT as u64;
            for seq in 0..near {
                q.push(SimTime::from_nanos(now), entry(now, seq));
            }
            let turn_ahead = (cursor_tick + N_BUCKETS as u64) * WIDTH;
            q.push(SimTime::from_nanos(now), entry(turn_ahead, near + 1));
            assert_eq!((q.in_ring, q.far.len()), (0, 1));
            q.push(SimTime::from_nanos(now), entry(turn_ahead - 1, near));
            assert_eq!((q.in_ring, q.far.len()), (1, 1));
            for seq in 0..near {
                assert_eq!(q.pop().unwrap().seq, seq);
            }
            assert_eq!(q.pop().unwrap().at.as_nanos(), turn_ahead - 1);
            // The cursor moved a turn less one tick: the far entry is in
            // the ring now, and a push later than it lands behind it.
            assert_eq!((q.in_ring, q.far.len()), (1, 0));
            q.push(
                SimTime::from_nanos(turn_ahead - 1),
                entry(turn_ahead + WIDTH, near + 2),
            );
            assert_eq!(q.pop().unwrap().at.as_nanos(), turn_ahead);
            assert_eq!(q.pop().unwrap().at.as_nanos(), turn_ahead + WIDTH);
            assert!(q.pop().is_none());
        }
    }

    #[test]
    fn timer_slots_generations() {
        let mut s = TimerSlots::new();
        let (now, at) = (SimTime::ZERO, SimTime::from_nanos(10));
        let (a, _) = s.arm(now, NodeId(0), 0, at, 0);
        let (b, _) = s.arm(now, NodeId(0), 0, at, 1);
        assert_eq!(s.live(), 2);
        assert!(s.disarm(a));
        assert!(!s.disarm(a), "double disarm must be a no-op");
        assert_eq!(s.live(), 1);
        // Reuse the slot: the old id must stay dead.
        let (c, _) = s.arm(now, NodeId(0), 0, at, 2);
        assert_eq!(
            a.0 as u32, c.0 as u32,
            "the freed slot is the next one armed"
        );
        assert_ne!(a, c);
        assert!(!s.disarm(a));
        assert!(s.disarm(b));
        assert!(s.disarm(c));
        assert_eq!(s.live(), 0);
    }

    #[test]
    fn a_slot_keeps_one_acting_entry() {
        let t = SimTime::from_nanos;
        let mut s = TimerSlots::new();
        let (a, push) = s.arm(t(0), NodeId(3), 7, t(100), 0);
        assert!(push, "first arming must push an entry");
        // Restart later: same slot, rides the entry queued at (100, 0).
        s.disarm(a);
        let (b, push) = s.arm(t(1), NodeId(4), 8, t(250), 1);
        assert!(!push);
        // Restart earlier than that entry: pushes its own, which takes over.
        s.disarm(b);
        let (c, push) = s.arm(t(2), NodeId(5), 9, t(50), 2);
        assert!(push);
        assert!(s.disarm(c), "its own entry fires it");
        assert_eq!(s.live(), 0);
        // The displaced entry pops dead, even with the slot armed again for
        // its very instant.
        let (d, push) = s.arm(t(60), NodeId(6), 10, t(100), 3);
        assert!(push);
        assert!(!s.disarm(a) && s.requeue(a, t(100), 0).is_none());
        assert!(s.disarm(d));
        // An entry due at the clock may have popped: not ridden.
        let (e, push) = s.arm(t(100), NodeId(0), 11, t(200), 4);
        assert!(push);
        // An entry whose arming is gone becomes the slot's rider, under the
        // rider's key, id and token; one whose slot is free is dropped.
        s.disarm(e);
        let (f, push) = s.arm(t(150), NodeId(8), 12, t(300), 5);
        assert!(!push);
        assert!(!s.disarm(e));
        let moved = s
            .requeue(e, t(200), 4)
            .expect("the entry must move to its rider's deadline");
        assert_eq!((moved.at, moved.seq), (t(300), 5));
        assert!(matches!(
            moved.kind,
            EventKind::Timer { node: NodeId(8), id, token: 12 } if id == f
        ));
        s.disarm(f);
        assert!(!s.disarm(f) && s.requeue(f, t(300), 5).is_none());
        let (_, push) = s.arm(t(300), NodeId(0), 13, t(300), 6);
        assert!(push, "nothing is queued for the slot any more");
    }
}
