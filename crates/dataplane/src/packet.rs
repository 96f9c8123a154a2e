//! Structure-of-arrays packet storage and the retained route arena.
//!
//! Packets never exist as individual heap objects: a [`PacketBatch`] holds
//! one parallel `Vec` per field and a packet is just an index into them
//! (the R2 router's vector representation). The engine's queues carry
//! those indices, so moving a packet between processing nodes is a `u32`
//! push. All buffers are retained across waves — `clear()` keeps
//! capacity — which is what makes the warm forwarding loop allocation-free
//! past its high-water mark.

use pacds_graph::NodeId;

/// Sentinel route handle: the packet has not been through backbone lookup.
pub const ROUTE_NONE: u32 = u32::MAX;

/// Terminal (or in-flight) state of a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Disposition {
    /// Still somewhere in the node graph.
    InFlight,
    /// Reached its destination through the egress node.
    Delivered,
    /// Terminally unroutable (undominated endpoint, out of range).
    Dropped,
    /// NACKed on a stale route; parked for retransmission after the next
    /// table install.
    Nacked,
}

/// Traffic class, set at injection and read by the classify node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum PacketKind {
    /// Source-routed unicast over the gateway backbone.
    Unicast,
    /// Broadcast where every host retransmits (the baseline the paper
    /// argues against).
    BlindBroadcast,
    /// Broadcast where only gateway hosts retransmit.
    GatewayBroadcast,
}

/// The SoA packet store. Field vectors are index-parallel; `pub(crate)`
/// so the engine's dispatch loops read them without bounds-checked
/// accessor calls in the hot path.
#[derive(Debug, Default)]
pub struct PacketBatch {
    pub(crate) src: Vec<NodeId>,
    pub(crate) dst: Vec<NodeId>,
    pub(crate) kind: Vec<PacketKind>,
    /// Owning flow id (`u32::MAX` for flowless broadcast packets).
    pub(crate) flow: Vec<u32>,
    /// Route handle into the [`RouteArena`]; [`ROUTE_NONE`] pre-lookup.
    pub(crate) route: Vec<u32>,
    /// Index of the hop currently holding the packet, within its route.
    pub(crate) hop: Vec<u32>,
    pub(crate) disposition: Vec<Disposition>,
}

impl PacketBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Packets currently stored (all states).
    pub fn len(&self) -> usize {
        self.src.len()
    }

    /// Whether the batch holds no packets.
    pub fn is_empty(&self) -> bool {
        self.src.is_empty()
    }

    /// Drops all packets, retaining capacity.
    pub fn clear(&mut self) {
        self.src.clear();
        self.dst.clear();
        self.kind.clear();
        self.flow.clear();
        self.route.clear();
        self.hop.clear();
        self.disposition.clear();
    }

    /// Appends a packet and returns its index.
    pub fn push(&mut self, src: NodeId, dst: NodeId, kind: PacketKind, flow: u32) -> u32 {
        let id = self.src.len() as u32;
        self.src.push(src);
        self.dst.push(dst);
        self.kind.push(kind);
        self.flow.push(flow);
        self.route.push(ROUTE_NONE);
        self.hop.push(0);
        self.disposition.push(Disposition::InFlight);
        id
    }

    /// Source of packet `id`.
    pub fn src(&self, id: u32) -> NodeId {
        self.src[id as usize]
    }

    /// Destination of packet `id`.
    pub fn dst(&self, id: u32) -> NodeId {
        self.dst[id as usize]
    }

    /// Current state of packet `id`.
    pub fn disposition(&self, id: u32) -> Disposition {
        self.disposition[id as usize]
    }
}

/// Retained arena of source routes: hop sequences packed end-to-end in one
/// `Vec`, addressed by `(offset, len)` spans. A route handle is a span
/// index. [`RouteArena::clear`] (called on every table install) drops all
/// routes at once while keeping capacity, so assembling the next epoch's
/// routes allocates nothing once warm.
#[derive(Debug, Default)]
pub struct RouteArena {
    hops: Vec<NodeId>,
    spans: Vec<(u32, u32)>,
}

impl RouteArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of routes stored.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether no routes are stored.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Drops every route, retaining capacity. Outstanding handles become
    /// invalid — the engine only calls this when no in-flight packet
    /// holds one (the pump-drains-everything invariant).
    pub fn clear(&mut self) {
        self.hops.clear();
        self.spans.clear();
    }

    /// Copies `path` in and returns its handle.
    pub fn push_route(&mut self, path: &[NodeId]) -> u32 {
        let offset = self.hops.len() as u32;
        self.hops.extend_from_slice(path);
        self.spans.push((offset, path.len() as u32));
        (self.spans.len() - 1) as u32
    }

    /// The hop sequence of route `id`.
    pub fn get(&self, id: u32) -> &[NodeId] {
        let (offset, len) = self.spans[id as usize];
        &self.hops[offset as usize..(offset + len) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_push_and_clear_retain_capacity() {
        let mut b = PacketBatch::new();
        let id = b.push(3, 7, PacketKind::Unicast, 0);
        assert_eq!(id, 0);
        assert_eq!(b.src(id), 3);
        assert_eq!(b.dst(id), 7);
        assert_eq!(b.disposition(id), Disposition::InFlight);
        assert_eq!(b.len(), 1);
        let cap = b.src.capacity();
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.src.capacity(), cap);
    }

    #[test]
    fn arena_spans_round_trip() {
        let mut a = RouteArena::new();
        let r0 = a.push_route(&[1, 2, 3]);
        let r1 = a.push_route(&[9]);
        assert_eq!(a.get(r0), &[1, 2, 3]);
        assert_eq!(a.get(r1), &[9]);
        assert_eq!(a.len(), 2);
        a.clear();
        assert!(a.is_empty());
        let r2 = a.push_route(&[5, 6]);
        assert_eq!(a.get(r2), &[5, 6]);
    }
}
