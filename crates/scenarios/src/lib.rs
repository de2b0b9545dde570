//! # scenarios — the experiment harness of the Halfback reproduction
//!
//! One module per figure/table of the paper (see `figures`), built on:
//!
//! * [`protocols`] — the scheme registry (all eight schemes + ablations)
//! * [`simcheck`] — the one runner every figure simulation goes through,
//!   and the oracle battery that judges it
//! * [`runner`] — watchdog stepping and schedule helpers
//! * [`harness`] — the parallel job pool the figure modules fan out on
//! * [`metrics`] — FCT statistics and the feasible-capacity knee detector
//! * [`report`] — text tables and CSV output
//!
//! The `repro` binary regenerates any figure:
//! `cargo run --release -p scenarios --bin repro -- fig12 --jobs 4`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
pub mod harness;
pub mod manifest;
pub mod metrics;
pub mod protocols;
pub mod report;
pub mod runner;
pub mod simcheck;
pub mod telemetry;
pub mod trace;
pub mod weather;

pub use protocols::Protocol;
pub use report::Figure;

/// Experiment scale: `Full` reproduces the paper's parameters; `Quick`
/// shrinks horizons and populations so tests and Criterion benches finish
/// fast while preserving the qualitative shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Paper-scale parameters (the `repro` binary default).
    Full,
    /// Reduced parameters for tests and benches.
    Quick,
}

impl Scale {
    /// Pick `full` or `quick` depending on scale.
    pub fn pick<T>(self, full: T, quick: T) -> T {
        match self {
            Scale::Full => full,
            Scale::Quick => quick,
        }
    }
}
