//! TCP-Cache (§4: "caching older values of the cwnd and ssthresh", in the
//! spirit of TCP Fast Start \[28\]): each completed flow deposits its final
//! congestion state into a per-path cache; the next flow to the same
//! destination starts from the cached window instead of slow-starting.
//!
//! The paper stresses that its experiments give TCP-Cache an unrealistic
//! advantage (one unchanging path, constant utilization), and our harness
//! reproduces exactly that setting; the cache handle is shared across all
//! flows of a scenario.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use netsim::{NodeId, SimTime};
use transport::reno::{RenoConfig, RenoEngine};
use transport::scoreboard::AckOutcome;
use transport::sender::Ops;
use transport::strategy::Strategy;
use transport::wire::{AckHeader, SegId};

/// Cached congestion state for one path.
#[derive(Debug, Clone, Copy)]
pub struct CacheEntry {
    /// Final congestion window of the last flow (bytes).
    pub cwnd: u64,
    /// Final slow-start threshold of the last flow (bytes).
    pub ssthresh: u64,
    /// When the entry was written.
    pub updated_at: SimTime,
}

netsim::snap_struct!(CacheEntry {
    cwnd,
    ssthresh,
    updated_at
});

/// Shared per-path cache: (sender, receiver) -> entry. The cache is
/// scenario-level state shared across flows — a strategy's own `save_state`
/// covers only per-flow state — so long-running drivers checkpoint the
/// table behind this handle themselves (it is a [`netsim::snap::Snap`]
/// map), or restored flows lose their warm start.
pub type PathCache = Rc<RefCell<HashMap<(NodeId, NodeId), CacheEntry>>>;

/// Create an empty path cache for a scenario.
pub fn path_cache() -> PathCache {
    Rc::new(RefCell::new(HashMap::new()))
}

/// TCP with per-path cwnd/ssthresh caching.
pub struct TcpCache {
    reno: RenoEngine,
    cache: PathCache,
    key: (NodeId, NodeId),
    /// Ignore entries older than this (ns); `None` = never age out.
    max_age_ns: Option<u64>,
}

impl TcpCache {
    /// A TCP-Cache sender for the path identified by `key`, sharing `cache`
    /// with every other flow of the scenario.
    pub fn new(cache: PathCache, key: (NodeId, NodeId)) -> Self {
        TcpCache {
            reno: RenoEngine::new(RenoConfig {
                icw_segments: 2,
                ..Default::default()
            }),
            cache,
            key,
            max_age_ns: None,
        }
    }

    /// Age out cache entries older than `max_age_ns` nanoseconds.
    pub fn with_max_age(mut self, max_age_ns: u64) -> Self {
        self.max_age_ns = Some(max_age_ns);
        self
    }
}

impl Strategy for TcpCache {
    fn name(&self) -> &'static str {
        "TCP-Cache"
    }

    fn on_established(&mut self, ops: &mut Ops<'_, '_>) {
        let entry = {
            let cache = self.cache.borrow();
            cache.get(&self.key).copied()
        };
        if let Some(e) = entry {
            let fresh = match self.max_age_ns {
                None => true,
                Some(age) => ops.now().as_nanos().saturating_sub(e.updated_at.as_nanos()) <= age,
            };
            if fresh {
                self.reno.set_cwnd(e.cwnd.min(ops.window_bytes() as u64));
                self.reno.set_ssthresh(e.ssthresh);
            }
        }
        self.reno.on_established(ops);
    }

    fn on_ack(&mut self, ops: &mut Ops<'_, '_>, _ack: &AckHeader, outcome: &AckOutcome) {
        self.reno.on_ack(ops, outcome);
    }

    fn on_loss_detected(&mut self, ops: &mut Ops<'_, '_>, newly_lost: &[SegId]) {
        self.reno.on_loss(ops, newly_lost);
    }

    fn on_rto(&mut self, ops: &mut Ops<'_, '_>) {
        self.reno.on_rto(ops);
    }

    fn on_complete(&mut self, ops: &mut Ops<'_, '_>) {
        self.cache.borrow_mut().insert(
            self.key,
            CacheEntry {
                cwnd: self.reno.cwnd(),
                ssthresh: self.reno.ssthresh(),
                updated_at: ops.now(),
            },
        );
    }

    // The shared path cache is scenario state, checkpointed by the driver;
    // only the per-flow engine and its ageing policy live here.
    netsim::snap_fields!(fn save_state, load_state { reno, max_age_ns });
}
