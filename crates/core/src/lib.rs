//! # halfback — Running Short Flows Quickly and Safely
//!
//! Reproduction of the transport scheme from *Halfback: Running Short Flows
//! Quickly and Safely* (Qingxi Li, Mo Dong, P. Brighten Godfrey,
//! CoNEXT 2015). Halfback is a sender-side mechanism for short flows with
//! two phases:
//!
//! * a **Pacing phase** that paces the whole flow (up to a Pacing
//!   Threshold) evenly over the first RTT, and
//! * a **Reverse-Ordered Proactive Retransmission (ROPR) phase** that,
//!   clocked one-for-one by returning ACKs, proactively retransmits
//!   not-yet-acknowledged segments from the *end* of the flow backwards —
//!   repairing the tail losses an aggressive start causes before any loss
//!   signal exists, while never sending faster than the bottleneck drains.
//!
//! Typically the descending retransmission stream meets the ascending ACK
//! stream in the middle, so about half the flow is retransmitted — hence
//! the name. Flows longer than the threshold fall back to TCP congestion
//! avoidance seeded with an ACK-derived rate estimate.
//!
//! ## Quick example
//!
//! ```
//! use halfback::Halfback;
//! use netsim::topology::{build_dumbbell, DumbbellSpec};
//! use netsim::FlowId;
//! use transport::{Host, TransportSim};
//!
//! // The paper's Emulab dumbbell: 15 Mbps / 60 ms RTT / 115 KB buffer.
//! let mut sim = TransportSim::new(42);
//! let net = build_dumbbell(&mut sim, &DumbbellSpec::emulab(1), |_, _| Box::new(Host::new()));
//! sim.with_node_mut::<Host, _>(net.left_hosts[0], |h, _| h.wire(net.left_hosts[0], net.left_egress[0]));
//! sim.with_node_mut::<Host, _>(net.right_hosts[0], |h, _| h.wire(net.right_hosts[0], net.right_egress[0]));
//!
//! // A 100 KB short flow, Halfback-transmitted.
//! sim.with_node_mut::<Host, _>(net.left_hosts[0], |h, core| {
//!     h.start_flow(core, FlowId(1), net.right_hosts[0], 100_000, Box::new(Halfback::new()))
//! });
//! sim.run_to_completion(1_000_000);
//!
//! let record = &sim.node_as::<Host>(net.left_hosts[0]).unwrap().completed()[0];
//! // Handshake + paced RTT + final ACK: ~3 RTTs, far below TCP's ~7.
//! assert!(record.fct.as_millis_f64() < 200.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod config;
pub mod sender;

pub use adaptive::{rate_cache, AdaptiveHalfback, RateCache};
pub use config::{HalfbackConfig, RoprVariant};
pub use sender::Halfback;
