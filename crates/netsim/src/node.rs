//! The [`Node`] trait: anything that receives packets and timer callbacks.

use crate::engine::Ctx;
use crate::packet::{LinkId, Packet, Payload};
use std::any::Any;

/// Identifies a scheduled timer so it can be cancelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimerId(pub u64);

/// A network element: a host (holding transport endpoints) or a router.
///
/// Nodes never call each other directly — all interaction goes through
/// packets and timers scheduled on the engine, which keeps event ordering
/// total and runs reproducible.
pub trait Node<P: Payload>: Any {
    /// A packet addressed to (or forwarded through) this node arrived.
    fn on_packet(&mut self, pkt: Packet<P>, ctx: &mut Ctx<'_, P>);

    /// Asked of every intact packet that arrives, before
    /// [`Node::on_packet`]: the link this node passes `pkt` on to untouched,
    /// if it does. On `Some(link)` the engine offers the packet to that
    /// link where it is parked and `on_packet` is not called — a hop then
    /// never copies the body out of the arena and back in. The default,
    /// `None`, is a node that takes delivery of everything (a host; a
    /// router with no route for the packet, which counts it there).
    fn relay(&mut self, _pkt: &Packet<P>) -> Option<LinkId> {
        None
    }

    /// A timer set by this node fired. `token` is the value passed to
    /// [`Ctx::set_timer`]; `id` is the timer's identity.
    fn on_timer(&mut self, id: TimerId, token: u64, ctx: &mut Ctx<'_, P>);

    /// Downcast support so the experiment harness can inspect concrete node
    /// types after a run.
    fn as_any(&self) -> &dyn Any;

    /// Mutable downcast support.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}
