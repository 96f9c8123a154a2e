//! # pacds-shard — the spatially-sharded CDS engine
//!
//! The paper's marking process and (simultaneous, single-pass,
//! min-of-three) Rules 1/2 are *local*: every decision about a node is a
//! pure function of its bounded neighbourhood and static priorities. This
//! crate exploits that to compute gateway sets of million-node unit-disk
//! instances that a single whole-graph workspace cannot touch (its dense
//! neighbour bitmap is `O(n²)` bits), while staying **bit-identical** to
//! the whole-graph pipeline.
//!
//! ## How it works
//!
//! 1. **Partition** — the instance is split into shards: grid tiles of the
//!    geometry ([`ShardedCds::compute_unit_disk`]) or contiguous id blocks
//!    of an existing graph ([`ShardedCds::compute_graph`]).
//! 2. **Halo** — each shard is expanded by [`REQUIRED_HALO`] hops (a
//!    geometric margin of `halo * sqrt(r² + EPS)`, or a BFS) and the
//!    induced subgraph of the expanded set is built — directly from the
//!    points in the spatial mode, so the whole-graph adjacency never
//!    materialises.
//! 3. **Solve** — each tile runs the ordinary marking + rule passes on its
//!    own retained [`pacds_core::CdsWorkspace`]. Tiles are scheduled
//!    big-first (LPT) over a persistent worker pool: each executor owns a
//!    stride of the size-ordered schedule and steals from the others when
//!    its stripe runs dry ([`ShardedCds::thread_work`] reports the
//!    distribution). Halo construction happens *inside* the per-tile job,
//!    so it parallelises along with the solve. Both `threads == 1` and the
//!    parallel path are free of steady-state heap allocations — the pool
//!    spawns once, and every per-run buffer is retained.
//! 4. **Merge** — each node's verdict is taken only from the shard that
//!    owns it; every node is owned by exactly one shard.
//!
//! ## Why 2 hops suffice (sketch; see ARCHITECTURE.md for the full
//! argument)
//!
//! A judged node `v`'s decisions compare it against marked neighbours
//! `u ∈ N(v)` using `deg(u)`, priority keys, and subset tests
//! `N[v] ⊆ N[u]` / `N(v) ⊆ N(u) ∪ N(w)`. With every node within 2 hops of
//! `v` present, `v`'s and all `u ∈ N(v)`'s neighbour lists are *complete*,
//! so each comparison evaluates exactly as in the whole graph; truncated
//! data beyond the halo can only belong to comparands whose subset test is
//! already exactly false. Priorities are static and every key breaks ties
//! on the caller's id, whatever the local order, so tie-breaks agree too.
//! One hop is *not* enough —
//! `tests/props.rs` holds a corridor topology where a halo-1 tile
//! miscounts a dominator's degree and keeps a node the whole graph
//! removes.
//!
//! ## What does not shard
//!
//! Sequential application (global visit order), the fixpoint schedule
//! (unbounded dependency radius), and effective case-analysis Rule 2 are
//! rejected with a typed [`ShardError::Unshardable`] before any work —
//! [`check_shardable`] is the predicate. Of the 40-configuration matrix,
//! 7 configurations shard; the conformance suite pins both halves.

mod churn;
mod engine;
mod error;
mod pool;
mod tiles;

pub use churn::{ChurnEngine, ChurnEvent, ChurnStats, ChurnTotals};
pub use engine::{ShardSpec, ShardStats, ShardedCds, ThreadWork};
pub use error::{check_shardable, ChurnError, ShardError, UnshardableReason};

/// Minimum halo width (in hops) for bit-identity, and the default of
/// [`ShardSpec`].
///
/// Marking needs 1 complete hop around a judged node; the rules compare
/// the judged node against its *neighbours'* neighbourhoods, adding one
/// more. Equivalently: rule decisions draw on information up to 2
/// node-hops away, and every node within 2 hops of an owned node must
/// carry its complete adjacency.
pub const REQUIRED_HALO: usize = 2;
