//! Vanilla TCP and TCP-10: slow start from a 2- or 10-segment initial
//! window over the shared NewReno engine.
//!
//! The paper (§4.1) uses ICW = 2 for all TCP-family schemes except TCP-10,
//! noting that the 10-segment window of \[6, 15\] was not universally
//! deployed in 2015.

use transport::reno::{RenoConfig, RenoEngine};
use transport::scoreboard::AckOutcome;
use transport::sender::Ops;
use transport::strategy::Strategy;
use transport::wire::{AckHeader, SegId};

/// NewReno TCP with a configurable initial congestion window.
#[derive(Debug)]
pub struct Tcp {
    name: &'static str,
    reno: RenoEngine,
}

impl Tcp {
    /// Vanilla TCP: ICW = 2 segments.
    pub fn new() -> Self {
        Tcp {
            name: "TCP",
            reno: RenoEngine::new(RenoConfig {
                icw_segments: 2,
                ..Default::default()
            }),
        }
    }

    /// TCP-10: ICW = 10 segments (\[6, 15\]).
    pub fn with_icw10() -> Self {
        Tcp {
            name: "TCP-10",
            reno: RenoEngine::new(RenoConfig {
                icw_segments: 10,
                ..Default::default()
            }),
        }
    }
}

impl Default for Tcp {
    fn default() -> Self {
        Self::new()
    }
}

impl Strategy for Tcp {
    fn name(&self) -> &'static str {
        self.name
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
