//! # transport — the shared transport layer of the Halfback reproduction
//!
//! Everything all eight schemes have in common, mirroring the paper's
//! methodology (§4.1: all schemes implemented over UDT with selective ACKs,
//! 1500-byte segments, 141 KB receive window, sender-side changes only):
//!
//! * [`wire`] — the packet header carried through `netsim`
//! * [`host`] — the simulator node holding sender/receiver endpoints
//! * [`sender`] — the sender chassis (handshake, timers, accounting)
//! * [`strategy`] — the policy trait each scheme implements
//! * [`receiver`] — the scheme-independent receive side (SACK, ACK-per-packet)
//! * [`scoreboard`] — SACK scoreboard, loss detection, pipe estimation
//! * [`reno`] — the shared NewReno engine baselines compose
//! * [`rtt`] — RFC 6298 RTT/RTO estimation
//! * [`rangeset`] — coalescing integer range sets
//! * [`trace`] — flight recorder: typed flow events + delivery timelines
//!
//! Protocol implementations live in the `baselines` crate (TCP, TCP-10,
//! TCP-Cache, Reactive, Proactive, JumpStart, PCP) and the `core` crate
//! (Halfback and its ablations).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod host;
pub mod rangeset;
pub mod receiver;
pub mod reno;
pub mod rtt;
pub mod scoreboard;
pub mod sender;
pub mod strategy;
pub mod trace;
pub mod wire;

pub use host::{completion_bus, CompletionBus, Host};
// Lives in `netsim` (its router uses it too); re-exported so
// `transport::fasthash` paths keep working.
pub use netsim::fasthash;
pub use sender::{
    AbortReason, Counters, FlowOutcome, FlowRecord, Ops, SenderConn, MAX_RTO_RETRIES,
    MAX_SYN_RETRIES,
};
pub use strategy::{PaceAction, Strategy};
pub use trace::{DeliveryTimelines, FlightRecorder, FlowEvent, FlowEventRecord};
pub use wire::{Header, SegId, SendClass, DEFAULT_FCW_BYTES, MSS};

/// Convenience alias: a simulator carrying transport packets.
pub type TransportSim = netsim::Simulator<Header>;
