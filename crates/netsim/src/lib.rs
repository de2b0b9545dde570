//! # netsim — deterministic discrete-event network simulator
//!
//! The substrate for the Halfback reproduction: links with serialization and
//! propagation delay, drop-tail (and CoDel) queues, random wire-loss models,
//! store-and-forward routers, and a totally ordered event engine driven by
//! virtual time.
//!
//! Everything is deterministic: event ordering is `(time, insertion
//! sequence)` and all randomness flows from a single seed per run
//! ([`rng::SimRng`]), so every figure in the evaluation is reproducible
//! bit-for-bit.
//!
//! ## Layering
//!
//! `netsim` knows nothing about transport protocols. Packets are generic
//! over a payload type; the `transport` crate instantiates the engine with
//! its segment/ACK header and plugs host nodes into topologies built by
//! [`topology`].
//!
//! ## Quick example
//!
//! ```
//! use netsim::engine::Simulator;
//! use netsim::link::LinkSpec;
//! use netsim::packet::{FlowId, Packet};
//! use netsim::time::{Rate, SimDuration};
//! # use netsim::engine::Ctx; use netsim::node::{Node, TimerId}; use std::any::Any;
//! # struct Sink(u32);
//! # impl Node<()> for Sink {
//! #     fn on_packet(&mut self, _p: Packet<()>, _c: &mut Ctx<'_, ()>) { self.0 += 1; }
//! #     fn on_timer(&mut self, _i: TimerId, _t: u64, _c: &mut Ctx<'_, ()>) {}
//! #     fn as_any(&self) -> &dyn Any { self }
//! #     fn as_any_mut(&mut self) -> &mut dyn Any { self }
//! # }
//! let mut sim: Simulator<()> = Simulator::new(42);
//! let a = sim.add_node(Box::new(Sink(0)));
//! let b = sim.add_node(Box::new(Sink(0)));
//! let l = sim.add_link(LinkSpec::drop_tail(
//!     a, b, Rate::from_mbps(15), SimDuration::from_millis(30), 115_000));
//! sim.core().send_on(l, Packet::new(FlowId(0), a, b, 1500, ()));
//! sim.run_to_completion(100);
//! assert!(sim.now().as_millis_f64() > 30.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub(crate) mod eventq;
pub mod fasthash;
pub mod faults;
pub mod json;
pub mod link;
pub mod loss;
pub mod node;
pub mod packet;
pub mod queue;
pub mod rng;
pub mod router;
pub mod shard;
pub mod snap;
pub mod stats;
pub mod time;
pub mod topology;

pub use engine::{Ctx, HygieneReport, Simulator};
pub use faults::FaultSpec;
pub use node::{Node, TimerId};
pub use packet::{
    FlowId, LinkId, NodeId, Packet, PacketArena, PacketHandle, PacketId, PacketMeta, Payload,
};
pub use snap::{Snap, SnapError, SnapReader, SnapWriter};
pub use time::{Rate, SimDuration, SimTime};
