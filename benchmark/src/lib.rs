//! # hbbench — the system benchmark of the Halfback reproduction
//!
//! Six named workloads, three end-to-end metrics measured with tracing off,
//! and a per-layer breakdown from probe rigs with timing shims. See
//! `benchmark/README.md` for the workloads, the metric glossary and the
//! exact surface of the repository this package depends on.
//!
//! * [`workloads`] — what each workload runs and which checks its outputs pass
//! * [`run`] — the run protocol, end to end and traced
//! * [`child`] — one measured run = one child process, reaped with `wait4`
//! * [`sharded`] — the benchmark-owned `sharded_dense` scenario
//! * [`rigs`], [`trace`], [`layers`] — probe rigs, span recorder and shims,
//!   and the per-layer metrics computed from them
//! * [`metrics`] — every metric's name, unit, direction and bound
//! * [`record`], [`compare`] — the results file and the A/B comparer
//! * [`args`], [`json`], [`error`] — command line, JSON, the error type

#![warn(missing_docs)]

pub mod args;
pub mod child;
pub mod compare;
pub mod error;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod record;
pub mod rigs;
pub mod run;
pub mod sharded;
pub mod trace;
pub mod workloads;
