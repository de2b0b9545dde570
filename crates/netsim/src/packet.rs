//! Packets and identifier types.
//!
//! The simulator is generic over the packet payload: the `transport` crate
//! instantiates it with its segment/ACK header type. `netsim` itself only
//! needs the wire size and addressing fields.

use crate::time::SimTime;
use std::fmt;

/// Identifies a node (host or router) in a topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

/// Identifies a unidirectional link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub u32);

/// Identifies a flow (one transport connection direction pair shares one id).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(pub u64);

/// Unique per-transmission identifier (retransmissions get fresh ids).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PacketId(pub u64);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

impl fmt::Display for FlowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// Marker trait for payload types carried by [`Packet`].
pub trait Payload: Clone + fmt::Debug + 'static {}
impl<T: Clone + fmt::Debug + 'static> Payload for T {}

/// A packet in flight.
#[derive(Debug, Clone)]
pub struct Packet<P> {
    /// Unique id of this transmission (retransmissions differ).
    pub id: PacketId,
    /// Flow this packet belongs to (used by hosts to dispatch to endpoints).
    pub flow: FlowId,
    /// Originating node.
    pub src: NodeId,
    /// Destination node (routers forward based on this).
    pub dst: NodeId,
    /// Total on-wire size in bytes, headers included.
    pub size: u32,
    /// Time the packet was handed to the first link (set by the engine).
    pub sent_at: SimTime,
    /// Payload corrupted in flight (fault injection). The engine drops the
    /// packet at the next node like a checksum failure instead of
    /// dispatching it.
    pub corrupted: bool,
    /// Protocol-level header/payload.
    pub payload: P,
}

crate::snap_struct!(impl<P> Packet<P> { id, flow, src, dst, size, sent_at, corrupted, payload });

impl<P: Payload> Packet<P> {
    /// Construct a packet; `id` and `sent_at` are assigned by the engine at
    /// send time, so builders use placeholders here.
    pub fn new(flow: FlowId, src: NodeId, dst: NodeId, size: u32, payload: P) -> Self {
        Packet {
            id: PacketId(0),
            flow,
            src,
            dst,
            size,
            sent_at: SimTime::ZERO,
            corrupted: false,
            payload,
        }
    }
}

/// Generation-stamped index of a packet parked in a [`PacketArena`].
///
/// Packs `(generation << 32) | slot`, the same scheme as the engine's timer
/// slots: a slot's generation is odd while occupied and even while free, so
/// any handle that survives past its packet's release fails the generation
/// match — use-after-free is a deterministic panic, not silent corruption.
///
/// Everything between a packet's send and its delivery (event-queue
/// entries, link-queue entries) moves this one word instead of the packet
/// struct, which for the transport payload is well over a hundred bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PacketHandle(u64);

impl PacketHandle {
    #[inline]
    fn new(gen: u32, idx: u32) -> Self {
        PacketHandle(((gen as u64) << 32) | idx as u64)
    }

    #[inline]
    fn idx(self) -> usize {
        (self.0 & 0xFFFF_FFFF) as usize
    }

    #[inline]
    fn gen(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

/// Metadata a link queue needs about a parked packet: enough to account
/// bytes, trace drops, and (later) classify flows — without touching the
/// payload. `Copy`, four words; this is what queue disciplines store.
#[derive(Debug, Clone, Copy)]
pub struct PacketMeta {
    /// Arena handle of the parked packet.
    pub handle: PacketHandle,
    /// Unique transmission id (for trace events).
    pub id: PacketId,
    /// Flow the packet belongs to (flow-aware disciplines key on this).
    pub flow: FlowId,
    /// Total on-wire size in bytes.
    pub size: u32,
}

/// A slab of in-flight packets addressed by generation-stamped handles.
///
/// One growing allocation per simulator, sized by the peak number of
/// packets simultaneously in flight (wire + queues), not by the number of
/// packets sent: slots are freed at delivery/drop and reused LIFO. The
/// generation array is kept separate from the payload slots so a liveness
/// check touches four bytes, not a payload-sized stride.
#[derive(Debug)]
pub struct PacketArena<P> {
    gens: Vec<u32>,
    slots: Vec<Option<Packet<P>>>,
    free: Vec<u32>,
    live: usize,
}

impl<P> Default for PacketArena<P> {
    fn default() -> Self {
        PacketArena {
            gens: Vec::new(),
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
        }
    }
}

impl<P: Payload> PacketArena<P> {
    /// An empty arena.
    pub fn new() -> Self {
        PacketArena::default()
    }

    /// Park a packet; returns its handle.
    pub fn alloc(&mut self, pkt: Packet<P>) -> PacketHandle {
        self.live += 1;
        let idx = match self.free.pop() {
            Some(idx) => {
                self.slots[idx as usize] = Some(pkt);
                idx
            }
            None => {
                debug_assert!(self.slots.len() < u32::MAX as usize);
                self.slots.push(Some(pkt));
                self.gens.push(0);
                (self.slots.len() - 1) as u32
            }
        };
        let gen = &mut self.gens[idx as usize];
        *gen = gen.wrapping_add(1); // odd: occupied
        debug_assert!(*gen & 1 == 1);
        PacketHandle::new(*gen, idx)
    }

    /// True while `h` refers to a packet still parked in the arena.
    pub fn is_live(&self, h: PacketHandle) -> bool {
        let idx = h.idx();
        idx < self.gens.len() && self.gens[idx] == h.gen()
    }

    #[inline]
    fn check(&self, h: PacketHandle, op: &str) {
        assert!(
            self.is_live(h),
            "packet handle use-after-free: {op} of {h:?} (slot reused or already released)"
        );
    }

    /// Borrow the parked packet. Panics on a stale handle.
    #[inline]
    pub fn get(&self, h: PacketHandle) -> &Packet<P> {
        self.check(h, "get");
        self.slots[h.idx()]
            .as_ref()
            .expect("live slot holds packet")
    }

    /// Mutably borrow the parked packet. Panics on a stale handle.
    #[inline]
    pub fn get_mut(&mut self, h: PacketHandle) -> &mut Packet<P> {
        self.check(h, "get_mut");
        self.slots[h.idx()]
            .as_mut()
            .expect("live slot holds packet")
    }

    /// Remove and return the parked packet, releasing its slot. Panics on a
    /// stale handle (double release is a bug, not a no-op).
    pub fn take(&mut self, h: PacketHandle) -> Packet<P> {
        self.check(h, "take");
        let idx = h.idx();
        self.gens[idx] = self.gens[idx].wrapping_add(1); // even: free
        self.free.push(idx as u32);
        self.live -= 1;
        self.slots[idx].take().expect("live slot holds packet")
    }

    /// Release a parked packet without reading it (drop paths).
    pub fn free(&mut self, h: PacketHandle) {
        drop(self.take(h));
    }

    /// The queue-facing record of a parked packet. Panics on a stale
    /// handle.
    #[inline]
    pub fn meta(&self, h: PacketHandle) -> PacketMeta {
        let p = self.get(h);
        PacketMeta {
            handle: h,
            id: p.id,
            flow: p.flow,
            size: p.size,
        }
    }

    /// Packets currently parked.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Slots ever allocated — the arena's high-water mark of simultaneously
    /// parked packets (growth tests pin this).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_new_sets_placeholders() {
        let p: Packet<u8> = Packet::new(FlowId(3), NodeId(0), NodeId(1), 1500, 7);
        assert_eq!(p.id, PacketId(0));
        assert_eq!(p.sent_at, SimTime::ZERO);
        assert_eq!(p.size, 1500);
        assert_eq!(p.payload, 7);
    }

    #[test]
    fn display_formats() {
        assert_eq!(NodeId(4).to_string(), "n4");
        assert_eq!(LinkId(7).to_string(), "l7");
        assert_eq!(FlowId(9).to_string(), "f9");
    }

    fn parked(tag: u8) -> Packet<u8> {
        Packet::new(FlowId(0), NodeId(0), NodeId(1), 1500, tag)
    }

    #[test]
    fn arena_roundtrip_and_slot_reuse() {
        let mut a: PacketArena<u8> = PacketArena::new();
        let h1 = a.alloc(parked(1));
        let h2 = a.alloc(parked(2));
        assert_eq!(a.live(), 2);
        assert_eq!(a.get(h1).payload, 1);
        assert_eq!(a.take(h1).payload, 1);
        assert_eq!(a.live(), 1);
        // The freed slot is reused, but under a fresh generation.
        let h3 = a.alloc(parked(3));
        assert_eq!(h3.idx(), h1.idx());
        assert_ne!(h3, h1);
        assert!(!a.is_live(h1));
        assert!(a.is_live(h3) && a.is_live(h2));
        assert_eq!(a.capacity(), 2, "reuse must not grow the arena");
    }

    #[test]
    #[should_panic(expected = "use-after-free")]
    fn arena_get_after_take_panics() {
        let mut a: PacketArena<u8> = PacketArena::new();
        let h = a.alloc(parked(1));
        let _ = a.take(h);
        let _ = a.get(h);
    }

    #[test]
    #[should_panic(expected = "use-after-free")]
    fn arena_double_take_panics() {
        let mut a: PacketArena<u8> = PacketArena::new();
        let h = a.alloc(parked(1));
        let _ = a.take(h);
        let _ = a.take(h);
    }

    #[test]
    #[should_panic(expected = "use-after-free")]
    fn arena_stale_handle_after_slot_reuse_panics() {
        let mut a: PacketArena<u8> = PacketArena::new();
        let h = a.alloc(parked(1));
        let _ = a.take(h);
        let _fresh = a.alloc(parked(2)); // reuses the slot, bumps generation
        let _ = a.get(h);
    }
}
