//! From-scratch undirected graph substrate for the PACDS workspace.
//!
//! The paper models an ad hoc wireless network as a simple undirected graph
//! `G = (V, E)` whose edges connect hosts within mutual transmission range.
//! This crate provides everything the algorithm layers need:
//!
//! * [`Graph`] — a compressed-sparse-row graph with sorted neighbour rows,
//!   rebuilt and patched in place by the hot loops.
//! * [`NeighborBitmap`] — per-node neighbourhood bitsets; the coverage tests
//!   at the heart of Rules 1/2 (`N[v] ⊆ N[u]`, `N(v) ⊆ N(u) ∪ N(w)`) become
//!   a handful of word-wise operations.
//! * [`algo`] — BFS, connected components, shortest paths (optionally
//!   restricted to a vertex subset, as dominating-set routing requires),
//!   eccentricity/diameter.
//! * [`gen`] — unit-disk graphs from host positions (grid-accelerated),
//!   G(n, p), and deterministic families (path, cycle, star, complete, grid).
//! * [`io`] — DOT and edge-list import/export.
//! * [`digest`] — canonical, insertion-order-independent graph digests
//!   (FNV-1a for [`graph_digest`], a word-wide 128-bit digest for the
//!   serving layer's cache key).

pub mod algo;
pub mod bitmap;
pub mod digest;
pub mod gen;
pub mod graph;
pub mod io;
pub mod kernels;

pub use bitmap::NeighborBitmap;
pub use digest::{canonicalize_edges, graph_digest};
pub use graph::{Graph, NodeId};

/// A set of vertices represented as a boolean mask over `0..n`.
///
/// Most PACDS algorithms (marking, pruning, routing restrictions) operate on
/// vertex subsets; a dense mask is both the fastest and the simplest
/// representation at these scales.
pub type VertexMask = Vec<bool>;

/// Retained scratch that can be grown to fit whatever another instance
/// of the same type has held: after `a.reserve_like(&b)`, `a` takes any
/// problem `b` has taken without allocating. A pool of per-worker scratch
/// stays evenly warm this way, whichever worker ran which job.
pub trait ReserveLike {
    /// Grows every retained buffer to at least `other`'s capacity.
    fn reserve_like(&mut self, other: &Self);
}

// `reserve_exact`: plain `reserve` may double past `other`, and slots
// matching each other would then ratchet their capacities up without end.
impl<T> ReserveLike for Vec<T> {
    fn reserve_like(&mut self, other: &Self) {
        self.reserve_exact(other.capacity().saturating_sub(self.len()));
    }
}

impl<T> ReserveLike for std::collections::VecDeque<T> {
    fn reserve_like(&mut self, other: &Self) {
        self.reserve_exact(other.capacity().saturating_sub(self.len()));
    }
}

/// Collects the indices set in a [`VertexMask`].
pub fn mask_to_vec(mask: &[bool]) -> Vec<NodeId> {
    mask.iter()
        .enumerate()
        .filter_map(|(i, &b)| b.then_some(i as NodeId))
        .collect()
}

/// Builds a [`VertexMask`] of length `n` from a list of vertices.
pub fn vec_to_mask(n: usize, verts: &[NodeId]) -> VertexMask {
    let mut mask = vec![false; n];
    for &v in verts {
        mask[v as usize] = true;
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_round_trip() {
        let mask = vec_to_mask(6, &[0, 2, 5]);
        assert_eq!(mask, vec![true, false, true, false, false, true]);
        assert_eq!(mask_to_vec(&mask), vec![0, 2, 5]);
    }

    #[test]
    fn empty_mask() {
        assert!(mask_to_vec(&vec_to_mask(4, &[])).is_empty());
    }
}
