//! Proactive TCP (\[18\], as described in the paper §2.2/§4.1): transmit two
//! copies of every data segment. Both copies are charged against the
//! congestion window, which is why the scheme is *slower* than TCP in the
//! loss-free common case (it halves the effective window during slow start)
//! while avoiding timeouts under tail loss — matching the paper's PlanetLab
//! ordering (Fig. 6) and its early collapse under load (Fig. 12: ~45 %).

use transport::reno::{RenoConfig, RenoEngine};
use transport::scoreboard::AckOutcome;
use transport::sender::Ops;
use transport::strategy::Strategy;
use transport::wire::{AckHeader, SegId};

/// Proactive TCP: every new segment is sent twice.
#[derive(Debug)]
pub struct ProactiveTcp {
    reno: RenoEngine,
}

impl ProactiveTcp {
    /// Proactive TCP with the default 2-segment initial window.
    pub fn new() -> Self {
        ProactiveTcp {
            reno: RenoEngine::new(RenoConfig {
                icw_segments: 2,
                duplicate_new_segments: true,
                ..Default::default()
            }),
        }
    }
}

impl Default for ProactiveTcp {
    fn default() -> Self {
        Self::new()
    }
}

impl Strategy for ProactiveTcp {
    fn name(&self) -> &'static str {
        "Proactive"
    }

    fn on_established(&mut self, ops: &mut Ops<'_, '_>) {
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

    netsim::snap_fields!(fn save_state, load_state { reno });
}
