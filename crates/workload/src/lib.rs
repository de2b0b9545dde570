//! # workload — traffic and path generation for the Halfback reproduction
//!
//! * [`dist`] — empirical CDFs and weighted choices
//! * [`flowsize`] — the three flow-size distributions of Fig. 2 / Fig. 11
//! * [`arrivals`] — Poisson arrivals with utilization targeting and
//!   replayable schedules (identical arrivals across schemes, §4.3.2)
//! * [`web`] — the synthetic 100-page corpus for the §4.4 web benchmark
//! * [`paths`] — PlanetLab-like and home-network path populations

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrivals;
pub mod dist;
pub mod flowsize;
pub mod paths;
pub mod web;

pub use arrivals::{
    interarrival_for_utilization, DiurnalPoisson, PoissonArrivals, Schedule,
    MAX_OVERLOAD_UTILIZATION,
};
pub use dist::{EmpiricalCdf, WeightedChoice};
pub use flowsize::TraceKind;
pub use paths::{planetlab_paths, HomeNetwork};
pub use web::{Corpus, Page, MAX_CONCURRENT_CONNECTIONS};
