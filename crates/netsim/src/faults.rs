//! Deterministic per-link fault injection.
//!
//! A [`FaultSpec`] describes everything pathological a link can do beyond
//! its steady-state loss model: flap down, blackhole traffic for a window,
//! reorder (bounded random extra delay), duplicate, corrupt payloads, and
//! step its bandwidth or propagation delay mid-run. Specs are pure data;
//! the engine instantiates a `FaultState` per link whose random draws
//! come from a **private substream** forked from the engine seed and the
//! link id. Two consequences:
//!
//! 1. A `(seed, spec)` pair fully determines every fault decision, so runs
//!    replay byte-identically regardless of `--jobs N`.
//! 2. Installing a fault spec never perturbs the engine's main RNG stream,
//!    so a run with faults disabled is bit-for-bit the run before this
//!    module existed.
//!
//! Semantics (see DESIGN.md for the full contract):
//! - **Down windows** reject packets at offer time ([`super::engine`]'s
//!   `forward_on`): a NIC with no carrier. A packet already serializing
//!   when the window opens completes (store-and-forward).
//! - **Blackhole windows** swallow packets whose serialization *ends*
//!   inside them: the bandwidth is consumed, the packet vanishes (a
//!   silently misrouted path, the classic mid-path blackhole). Like every
//!   fate, this is decided when serialization starts, for a window open at
//!   its end.
//! - **Corruption** flags the packet; it traverses the link and is dropped
//!   at the next node like a checksum failure, never dispatched.
//! - **Duplication** delivers a second copy of the packet (same
//!   [`crate::PacketId`]).
//! - **Reordering** adds a bounded uniform extra propagation delay per
//!   delivered copy, letting later packets overtake.
//! - **Rate/delay steps** apply lazily: a rate step to the first
//!   serialization that starts at or after it. A packet's propagation
//!   delay is the one in force at the end of its serialization, read ahead
//!   at its start without moving the step cursor.

use crate::rng::SimRng;
use crate::time::{Rate, SimDuration, SimTime};

/// A half-open virtual-time window `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    /// First instant inside the window.
    pub start: SimTime,
    /// First instant after the window.
    pub end: SimTime,
}

impl Window {
    /// Construct a window; `start` must not exceed `end`.
    pub fn new(start: SimTime, end: SimTime) -> Self {
        assert!(start <= end, "window start {start} after end {end}");
        Window { start, end }
    }

    /// Is `t` inside the window?
    pub fn contains(&self, t: SimTime) -> bool {
        t >= self.start && t < self.end
    }
}

/// Reordering model: each delivered copy independently gains a uniform
/// extra delay in `[0, max_extra)` with probability `prob`.
#[derive(Debug, Clone, Copy)]
pub struct ReorderSpec {
    /// Probability a delivered copy is delayed.
    pub prob: f64,
    /// Upper bound on the extra delay.
    pub max_extra: SimDuration,
}

/// Everything pathological one link can do, as pure data.
///
/// The default spec is a no-op; build scenarios with the chained
/// constructors. All probabilities must be in `[0, 1]`.
#[derive(Debug, Clone, Default)]
pub struct FaultSpec {
    /// Windows during which the link rejects offered packets (carrier loss).
    pub down: Vec<Window>,
    /// Windows during which packets whose serialization ends there
    /// silently vanish.
    pub blackhole: Vec<Window>,
    /// Per-copy reordering model.
    pub reorder: Option<ReorderSpec>,
    /// Probability a serialized packet is delivered twice.
    pub duplicate_prob: f64,
    /// Probability a serialized packet is flagged corrupt (dropped at the
    /// receiving node like a checksum failure).
    pub corrupt_prob: f64,
    /// `(at, rate)` bandwidth changes, applied lazily at `at`.
    pub rate_steps: Vec<(SimTime, Rate)>,
    /// `(at, delay)` one-way propagation changes, applied lazily at `at`.
    pub delay_steps: Vec<(SimTime, SimDuration)>,
}

impl FaultSpec {
    /// A spec that does nothing (same as `Default`).
    pub fn none() -> Self {
        FaultSpec::default()
    }

    /// Add a link-down window.
    pub fn down_window(mut self, start: SimTime, end: SimTime) -> Self {
        self.down.push(Window::new(start, end));
        self
    }

    /// Add a blackhole window.
    pub fn blackhole_window(mut self, start: SimTime, end: SimTime) -> Self {
        self.blackhole.push(Window::new(start, end));
        self
    }

    /// Enable reordering: each copy delayed by up to `max_extra` with
    /// probability `prob`.
    pub fn with_reorder(mut self, prob: f64, max_extra: SimDuration) -> Self {
        assert!((0.0..=1.0).contains(&prob), "reorder prob {prob}");
        self.reorder = Some(ReorderSpec { prob, max_extra });
        self
    }

    /// Enable duplication with the given per-packet probability.
    pub fn with_duplication(mut self, prob: f64) -> Self {
        assert!((0.0..=1.0).contains(&prob), "duplicate prob {prob}");
        self.duplicate_prob = prob;
        self
    }

    /// Enable corruption with the given per-packet probability.
    pub fn with_corruption(mut self, prob: f64) -> Self {
        assert!((0.0..=1.0).contains(&prob), "corrupt prob {prob}");
        self.corrupt_prob = prob;
        self
    }

    /// Step the link rate to `rate` at virtual time `at`.
    pub fn rate_step(mut self, at: SimTime, rate: Rate) -> Self {
        self.rate_steps.push((at, rate));
        self
    }

    /// Step the one-way propagation delay to `delay` at virtual time `at`.
    pub fn delay_step(mut self, at: SimTime, delay: SimDuration) -> Self {
        self.delay_steps.push((at, delay));
        self
    }

    /// Does this spec change link behaviour at all?
    pub fn is_noop(&self) -> bool {
        self.down.is_empty()
            && self.blackhole.is_empty()
            && self.reorder.is_none()
            && self.duplicate_prob == 0.0
            && self.corrupt_prob == 0.0
            && self.rate_steps.is_empty()
            && self.delay_steps.is_empty()
    }
}

/// Runtime fault state of one link: the spec, its private RNG substream,
/// and cursors into the step schedules.
#[derive(Debug)]
pub(crate) struct FaultState {
    spec: FaultSpec,
    rng: SimRng,
    next_rate_step: usize,
    next_delay_step: usize,
}

impl FaultState {
    /// Build the runtime state; `rng` must be a substream derived from the
    /// engine seed and the link id (see `Simulator::set_link_faults`).
    pub(crate) fn new(mut spec: FaultSpec, rng: SimRng) -> Self {
        // Steps apply via a forward-only cursor; keep them time-sorted so
        // callers may list them in any order.
        spec.rate_steps.sort_by_key(|s| s.0);
        spec.delay_steps.sort_by_key(|s| s.0);
        FaultState {
            spec,
            rng,
            next_rate_step: 0,
            next_delay_step: 0,
        }
    }

    // The dynamic state an engine snapshot carries: the private RNG
    // substream and the two step cursors. The spec comes from the topology
    // rebuild; the rate and delay the steps set travel with the link.
    crate::snap_fields!(pub(crate) fn save_cursor, load_cursor {
        rng,
        next_rate_step,
        next_delay_step,
    });

    pub(crate) fn is_down(&self, now: SimTime) -> bool {
        self.spec.down.iter().any(|w| w.contains(now))
    }

    pub(crate) fn is_blackholed(&self, now: SimTime) -> bool {
        self.spec.blackhole.iter().any(|w| w.contains(now))
    }

    pub(crate) fn draw_corrupt(&mut self) -> bool {
        self.spec.corrupt_prob > 0.0 && self.rng.chance(self.spec.corrupt_prob)
    }

    pub(crate) fn draw_duplicate(&mut self) -> bool {
        self.spec.duplicate_prob > 0.0 && self.rng.chance(self.spec.duplicate_prob)
    }

    /// Extra propagation delay for one delivered copy (ZERO when reordering
    /// is off or the per-copy draw misses).
    pub(crate) fn draw_reorder_extra(&mut self) -> SimDuration {
        match self.spec.reorder {
            Some(r) if r.prob > 0.0 && self.rng.chance(r.prob) => SimDuration::from_nanos(
                self.rng.uniform_range(0.0, r.max_extra.as_nanos() as f64) as u64,
            ),
            _ => SimDuration::ZERO,
        }
    }

    /// The delay the steps set at `t`, if a step not yet applied is due by
    /// then; the cursors do not move.
    pub(crate) fn delay_at(&self, t: SimTime) -> Option<SimDuration> {
        let pending = &self.spec.delay_steps[self.next_delay_step..];
        pending.iter().take_while(|s| s.0 <= t).last().map(|s| s.1)
    }

    /// Advance the step cursors to `now`; returns the latest rate/delay at
    /// or before `now`, if any step became due since the last call.
    pub(crate) fn step_updates(&mut self, now: SimTime) -> (Option<Rate>, Option<SimDuration>) {
        let mut rate = None;
        while self.next_rate_step < self.spec.rate_steps.len()
            && self.spec.rate_steps[self.next_rate_step].0 <= now
        {
            rate = Some(self.spec.rate_steps[self.next_rate_step].1);
            self.next_rate_step += 1;
        }
        let mut delay = None;
        while self.next_delay_step < self.spec.delay_steps.len()
            && self.spec.delay_steps[self.next_delay_step].0 <= now
        {
            delay = Some(self.spec.delay_steps[self.next_delay_step].1);
            self.next_delay_step += 1;
        }
        (rate, delay)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn windows_are_half_open() {
        let w = Window::new(t(10), t(20));
        assert!(!w.contains(t(9)));
        assert!(w.contains(t(10)));
        assert!(w.contains(t(19)));
        assert!(!w.contains(t(20)));
    }

    #[test]
    fn noop_detection() {
        assert!(FaultSpec::none().is_noop());
        assert!(!FaultSpec::none().with_duplication(0.1).is_noop());
        assert!(!FaultSpec::none().down_window(t(1), t(2)).is_noop());
        assert!(!FaultSpec::none()
            .rate_step(t(0), Rate::from_mbps(1))
            .is_noop());
    }

    #[test]
    fn step_cursor_applies_latest_due_step_once() {
        let spec = FaultSpec::none()
            .rate_step(t(5), Rate::from_mbps(5))
            .rate_step(t(1), Rate::from_mbps(1))
            .delay_step(t(3), SimDuration::from_millis(3));
        let mut st = FaultState::new(spec, SimRng::new(0));
        // Both rate steps due at t=6: the later one wins, applied once.
        let (rate, delay) = st.step_updates(t(6));
        assert_eq!(rate, Some(Rate::from_mbps(5)));
        assert_eq!(delay, Some(SimDuration::from_millis(3)));
        let (rate, delay) = st.step_updates(t(7));
        assert_eq!(rate, None);
        assert_eq!(delay, None);
    }

    #[test]
    fn draws_are_deterministic_per_substream() {
        let spec = FaultSpec::none()
            .with_duplication(0.5)
            .with_corruption(0.5)
            .with_reorder(0.5, SimDuration::from_millis(10));
        let run = |seed: u64| {
            let mut st = FaultState::new(spec.clone(), SimRng::new(seed));
            (0..64)
                .map(|_| {
                    (
                        st.draw_corrupt(),
                        st.draw_duplicate(),
                        st.draw_reorder_extra(),
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }
}
