//! # pacds-dataplane — packet-level forwarding over the CDS backbone
//!
//! Everything below this crate computes and maintains the gateway
//! backbone; this crate runs *traffic* over it. The design goal is to
//! demonstrate, at the packet level, the paper's two routing claims:
//! that dominating-set-based routing confines route search to the small
//! backbone (§ "CDS based routing": member → source gateway → destination
//! gateway → member), and that gateway-relayed broadcast cuts
//! transmissions versus blind flooding.
//!
//! The engine is a vector-dispatch forwarding graph in the style of
//! modular software routers: a fixed set of processing nodes
//! (ingress → classify → backbone-lookup → forward/flood → egress, plus
//! NACK and drop legs), with batches of packet indices pushed between
//! them and each node draining its whole input queue per sweep. Packets
//! live in a structure-of-arrays [`PacketBatch`]; source routes live in a
//! retained [`RouteArena`], assembled by
//! [`pacds_routing::BackboneRoutes`] (per-destination distance arrays over
//! the live backbone, repaired in place on each table install); all
//! buffers survive across waves, so the warm forwarding loop performs
//! zero steady-state allocations (pinned by `tests/zero_alloc.rs` at the
//! workspace root).
//!
//! Module map:
//!
//! * [`packet`] — SoA packet storage, dispositions, the route arena.
//! * [`flood`] — [`FloodEngine`]: retained duplicate-suppression flooding,
//!   semantics pinned to [`pacds_routing::flood_cost`].
//! * [`engine`] — [`Dataplane`]: the node graph, the pump loop, the
//!   NACK/retransmit path.
//! * [`net`] — [`ChurnNet`]: the live network (churn control plane plus
//!   the CSR adjacency built at open, dead hosts masked) the benches and
//!   CLI drive traffic over.
//!
//! The liveness contract, end to end: a kill flips the *current* alive
//! mask immediately; backbone tables only change at the next churn
//! refresh; the forward node checks the current mask before every
//! transmission and NACKs on a dead next hop, so no packet is ever
//! forwarded into a dead node — the `dp.misroutes` counter is a
//! compiled-in invariant check that the benches assert stays zero.

pub mod engine;
pub mod flood;
pub mod net;
pub mod packet;

pub use engine::{Dataplane, DpNode, DpStats, NodeCounters, DP_NODE_NAMES, NUM_DP_NODES};
pub use flood::FloodEngine;
pub use net::ChurnNet;
pub use packet::{Disposition, PacketBatch, PacketKind, RouteArena, ROUTE_NONE};
