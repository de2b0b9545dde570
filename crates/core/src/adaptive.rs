//! The §3.1 threshold alternative the paper names but does not evaluate:
//! "set the threshold to the largest throughput observed on recent
//! connections, times the RTT derived from the three-way handshake. This
//! setting efficiently avoids a too-aggressive startup phase."
//!
//! [`AdaptiveHalfback`] wraps the regular sender with a shared per-path
//! throughput cache; each completed flow deposits its achieved delivery
//! rate, and the next flow to the same destination paces at most
//! `observed_rate x handshake RTT` bytes in its aggressive phase.

use crate::config::HalfbackConfig;
use crate::sender::Halfback;
use netsim::{NodeId, Rate};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use transport::scoreboard::AckOutcome;
use transport::sender::Ops;
use transport::strategy::{PaceAction, Strategy};
use transport::wire::{AckHeader, ProbeAckHeader, SegId, MSS};

/// Shared per-path record of the best observed delivery rate. Like
/// TCP-Cache's path cache, this is scenario-level state shared across flows:
/// a driver that checkpoints must save the table behind the handle itself
/// (it is a [`netsim::snap::Snap`] map), not any one sender.
pub type RateCache = Rc<RefCell<HashMap<(NodeId, NodeId), Rate>>>;

/// Create an empty rate cache for a scenario.
pub fn rate_cache() -> RateCache {
    Rc::new(RefCell::new(HashMap::new()))
}

/// Halfback with the observed-throughput Pacing Threshold.
pub struct AdaptiveHalfback {
    inner: Option<Halfback>,
    cfg: HalfbackConfig,
    cache: RateCache,
    key: (NodeId, NodeId),
}

impl AdaptiveHalfback {
    /// An adaptive sender for the path `key`, sharing `cache` with the
    /// scenario's other flows.
    pub fn new(cache: RateCache, key: (NodeId, NodeId)) -> Self {
        AdaptiveHalfback {
            inner: None,
            cfg: HalfbackConfig::paper(),
            cache,
            key,
        }
    }

    fn inner(&mut self) -> &mut Halfback {
        self.inner.as_mut().expect("on_established must run first")
    }
}

impl Strategy for AdaptiveHalfback {
    fn name(&self) -> &'static str {
        "Halfback-Adaptive"
    }

    fn on_established(&mut self, ops: &mut Ops<'_, '_>) {
        // Threshold = best observed rate x this handshake's RTT sample,
        // floored at ten segments so a noisy history cannot strangle the
        // startup entirely. First contact falls back to the paper default
        // (the receiver window).
        let mut cfg = self.cfg.clone();
        if let Some(&rate) = self.cache.borrow().get(&self.key) {
            if let Some(rtt) = ops.rtt().latest() {
                let threshold = rate.bytes_in(rtt).max(10 * MSS as u64);
                cfg.pacing_threshold = Some(threshold);
            }
        }
        let mut inner = Halfback::with_config(cfg);
        inner.on_established(ops);
        self.inner = Some(inner);
    }

    fn on_ack(&mut self, ops: &mut Ops<'_, '_>, ack: &AckHeader, outcome: &AckOutcome) {
        self.inner().on_ack(ops, ack, outcome);
    }

    fn on_loss_detected(&mut self, ops: &mut Ops<'_, '_>, newly_lost: &[SegId]) {
        self.inner().on_loss_detected(ops, newly_lost);
    }

    fn on_rto(&mut self, ops: &mut Ops<'_, '_>) {
        self.inner().on_rto(ops);
    }

    fn on_pace_tick(&mut self, ops: &mut Ops<'_, '_>) -> PaceAction {
        self.inner().on_pace_tick(ops)
    }

    fn on_pto(&mut self, ops: &mut Ops<'_, '_>) {
        self.inner().on_pto(ops);
    }

    fn on_user_timer(&mut self, ops: &mut Ops<'_, '_>, token: u64) {
        self.inner().on_user_timer(ops, token);
    }

    fn on_probe_ack(&mut self, ops: &mut Ops<'_, '_>, pa: &ProbeAckHeader) {
        self.inner().on_probe_ack(ops, pa);
    }

    fn on_complete(&mut self, ops: &mut Ops<'_, '_>) {
        // Deposit the achieved delivery rate (payload bytes over the data
        // transfer time, handshake excluded).
        let elapsed = ops.now().saturating_since(ops.established_at());
        if elapsed.is_zero() {
            return;
        }
        if let Some(rate) = Rate::for_bytes_in(ops.flow_bytes(), elapsed) {
            let mut cache = self.cache.borrow_mut();
            let entry = cache.entry(self.key).or_insert(rate);
            // "Largest throughput observed on recent connections".
            if rate > *entry {
                *entry = rate;
            } else {
                // Age gently toward the newest observation so stale spikes
                // decay: keep 3/4 old + 1/4 new.
                *entry = Rate::from_bps((entry.as_bps() / 4) * 3 + rate.as_bps() / 4);
            }
        }
    }

    // Only the wrapped sender's state (the shared rate cache is the
    // driver's to checkpoint). Not a field list: the inner sender is
    // rebuilt from this wrapper's config before its state is overlaid.
    fn save_state(&self, w: &mut netsim::snap::SnapWriter) {
        w.put(&self.inner.is_some());
        if let Some(inner) = &self.inner {
            inner.save_state(w);
        }
    }

    fn load_state(
        &mut self,
        r: &mut netsim::snap::SnapReader<'_>,
    ) -> Result<(), netsim::snap::SnapError> {
        self.inner = if r.get()? {
            let mut inner = Halfback::with_config(self.cfg.clone());
            inner.load_state(r)?;
            Some(inner)
        } else {
            None
        };
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_cache_is_shared_and_empty() {
        let c = rate_cache();
        assert!(c.borrow().is_empty());
        let c2 = c.clone();
        c.borrow_mut()
            .insert((NodeId(0), NodeId(1)), Rate::from_mbps(10));
        assert_eq!(c2.borrow().len(), 1);
    }
}
