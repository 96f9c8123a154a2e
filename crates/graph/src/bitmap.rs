//! Per-node neighbourhood bitsets.
//!
//! The pruning rules test neighbourhood coverage many times per node:
//! `N[v] ⊆ N[u]` (Rule 1) and `N(v) ⊆ N(u) ∪ N(w)` (Rule 2). On a bitset
//! representation both reduce to a few word-wise `AND`/`OR` passes, turning
//! the rule engine's inner loop from set scans into O(n/64) word operations
//! — executed 4 words at a time by the [`crate::kernels`] module, with an
//! early exit per 256-bit chunk.

use crate::{kernels, Graph, NodeId, ReserveLike};

const WORD_BITS: usize = 64;

#[inline]
fn words_for(n: usize) -> usize {
    n.div_ceil(WORD_BITS)
}

/// A matrix of bitsets: row `v` holds the open neighbourhood `N(v)`.
#[derive(Debug, Clone, Default)]
pub struct NeighborBitmap {
    n: usize,
    words: usize,
    rows: Vec<u64>,
}

impl ReserveLike for NeighborBitmap {
    fn reserve_like(&mut self, other: &Self) {
        self.rows.reserve_like(&other.rows);
    }
}

impl NeighborBitmap {
    /// An empty bitmap (zero vertices); a reusable slot for
    /// [`NeighborBitmap::rebuild_into`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds the neighbourhood bitmap of `g`.
    pub fn build(g: &Graph) -> Self {
        let mut bm = Self::new();
        bm.rebuild_into(g);
        bm
    }

    /// Rebuilds the bitmap for `g` in place, reusing the row storage.
    ///
    /// After warm-up (once the row buffer has reached its high-water size)
    /// this performs no heap allocation, which is what keeps the
    /// Monte-Carlo interval loop allocation-free. Rows are filled through a
    /// single mutable chunk borrow per vertex ([`slice::chunks_exact_mut`]),
    /// not by re-slicing `rows[v * words..]` inside the neighbour loop.
    pub fn rebuild_into(&mut self, g: &Graph) {
        let n = g.n();
        let words = words_for(n);
        self.n = n;
        self.words = words;
        self.rows.clear();
        self.rows.resize(n * words, 0);
        if words == 0 {
            return;
        }
        for (v, row) in self.rows.chunks_exact_mut(words).enumerate() {
            for &u in g.neighbors(v as NodeId) {
                row[u as usize / WORD_BITS] |= 1 << (u as usize % WORD_BITS);
            }
        }
    }

    /// Clears every row (all neighbourhoods become empty) without touching
    /// the vertex count or releasing storage. Pair with
    /// [`NeighborBitmap::set_edge`] to assemble a topology edge by edge.
    pub fn clear(&mut self) {
        self.rows.fill(0);
    }

    /// Records the undirected edge `{u, v}` in both rows.
    ///
    /// # Panics
    /// Panics on out-of-range endpoints; self-loops are ignored (open
    /// neighbourhoods never contain the vertex itself).
    pub fn set_edge(&mut self, u: NodeId, v: NodeId) {
        if u == v {
            return;
        }
        assert!(
            (u as usize) < self.n && (v as usize) < self.n,
            "edge ({u}, {v}) out of range for n = {}",
            self.n
        );
        self.rows[u as usize * self.words + v as usize / WORD_BITS] |=
            1 << (v as usize % WORD_BITS);
        self.rows[v as usize * self.words + u as usize / WORD_BITS] |=
            1 << (u as usize % WORD_BITS);
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    #[inline]
    fn row(&self, v: NodeId) -> &[u64] {
        &self.rows[v as usize * self.words..(v as usize + 1) * self.words]
    }

    #[inline]
    fn bit(row: &[u64], i: NodeId) -> u64 {
        row[i as usize / WORD_BITS] >> (i as usize % WORD_BITS) & 1
    }

    /// Whether `u ∈ N(v)`.
    #[inline]
    pub fn contains(&self, v: NodeId, u: NodeId) -> bool {
        Self::bit(self.row(v), u) == 1
    }

    /// `N[v] ⊆ N[u]` — the Rule 1 coverage condition.
    ///
    /// Expanded: every neighbour of `v` must be `u`, or a neighbour of `u`;
    /// and `v` itself must be in `N[u]` (i.e. `v = u` or `v ~ u`).
    pub fn closed_subset(&self, v: NodeId, u: NodeId) -> bool {
        if v != u && !self.contains(u, v) {
            return false;
        }
        // mask = N(v) \ (N(u) ∪ {u, v}) must be empty; the u/v self-bits
        // are the kernel's exception masks.
        let ubit = u as usize;
        let vbit = v as usize;
        kernels::diff_is_empty_except(
            self.row(v),
            self.row(u),
            (ubit / WORD_BITS, 1u64 << (ubit % WORD_BITS)),
            (vbit / WORD_BITS, 1u64 << (vbit % WORD_BITS)),
        )
    }

    /// `N(v) ⊆ N(u) ∪ N(w)` — the Rule 2 coverage condition.
    ///
    /// Open neighbourhoods: `v` never contains itself, and occurrences of
    /// `u`/`w` inside `N(v)` are covered whenever `u ~ w` or they appear in
    /// each other's rows; the paper applies this only to triples where `u`
    /// and `w` are neighbours of `v`, in which case `u ∈ N(v)` needs
    /// `u ∈ N(w)`: the bitset test computes the literal subset relation with
    /// no special cases, exactly as stated.
    pub fn open_subset_pair(&self, v: NodeId, u: NodeId, w: NodeId) -> bool {
        kernels::diff_pair_is_empty(self.row(v), self.row(u), self.row(w))
    }

    /// Degree of `v` recomputed from the bitset (popcount).
    pub fn degree(&self, v: NodeId) -> usize {
        self.row(v).iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Collects the nonzero words of row `v` as `(word index, word)` pairs
    /// into `out` (cleared first).
    ///
    /// At bounded degree a row has at most `deg(v)` nonzero words however
    /// large `n` grows, so coverage predicates restricted to this support
    /// run in O(deg) instead of O(n/64) — the difference between the rule
    /// passes scaling linearly and quadratically with network size.
    pub fn row_support_into(&self, v: NodeId, out: &mut Vec<(u32, u64)>) {
        out.clear();
        for (i, &w) in self.row(v).iter().enumerate() {
            if w != 0 {
                out.push((i as u32, w));
            }
        }
    }

    /// The lowest-index vertex of `N(v) \ N(u)`, where `support` holds the
    /// nonzero words of `N(v)` ([`NeighborBitmap::row_support_into`]);
    /// `None` when `N(v) ⊆ N(u)`. Any set covering `N(v)` together with
    /// `N(u)` must contain this vertex, which makes it a one-word witness
    /// test that rejects most candidate partners before any full coverage
    /// scan.
    pub fn first_residual_bit(&self, support: &[(u32, u64)], u: NodeId) -> Option<NodeId> {
        kernels::support_first_diff_bit(support, self.row(u))
    }

    /// [`NeighborBitmap::open_subset_pair`] with the support of row `v`
    /// precomputed by [`NeighborBitmap::row_support_into`]: decides
    /// `N(v) ⊆ N(u) ∪ N(w)` touching only the nonzero words of `N(v)`,
    /// with the usual early exit on the first uncovered word.
    pub fn open_subset_pair_with(&self, support: &[(u32, u64)], u: NodeId, w: NodeId) -> bool {
        kernels::support_diff_pair_is_empty(support, self.row(u), self.row(w))
    }

    /// Rebuilds the rows of `verts` from `g` (after a local topology
    /// change); all other rows must still be valid for `g`.
    ///
    /// # Panics
    /// Panics if `g` has a different vertex count than the bitmap.
    pub fn refresh_rows(&mut self, g: &Graph, verts: impl IntoIterator<Item = NodeId>) {
        assert_eq!(g.n(), self.n, "vertex count is fixed");
        for v in verts {
            let row = &mut self.rows[v as usize * self.words..(v as usize + 1) * self.words];
            row.fill(0);
            for &u in g.neighbors(v) {
                row[u as usize / WORD_BITS] |= 1 << (u as usize % WORD_BITS);
            }
        }
    }

    /// Whether `N(target) ⊆ members ∪ (∪_{m ∈ members} N(m))` — the
    /// coverage condition of the Dai-Wu generalised pruning rule (the
    /// covering set's own vertices count as covered).
    pub fn union_covers(&self, target: NodeId, members: &[NodeId]) -> bool {
        let mut acc = vec![0u64; self.words];
        for &m in members {
            for (a, r) in acc.iter_mut().zip(self.row(m)) {
                *a |= r;
            }
            acc[m as usize / WORD_BITS] |= 1 << (m as usize % WORD_BITS);
        }
        kernels::diff_is_empty(self.row(target), &acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gen, Graph};
    use rand::SeedableRng;

    fn naive_closed_subset(g: &Graph, v: NodeId, u: NodeId) -> bool {
        g.closed_covered_by(v, u)
    }

    #[test]
    fn contains_matches_adjacency() {
        let g = Graph::from_edges(5, &[(0, 1), (0, 4), (1, 2), (1, 4), (2, 3)]);
        let bm = NeighborBitmap::build(&g);
        for u in 0..5u32 {
            for v in 0..5u32 {
                assert_eq!(bm.contains(u, v), g.has_edge(u, v), "{u},{v}");
            }
        }
    }

    #[test]
    fn degree_matches_graph() {
        let g = Graph::from_edges(5, &[(0, 1), (0, 4), (1, 2), (1, 4), (2, 3)]);
        let bm = NeighborBitmap::build(&g);
        for v in 0..5u32 {
            assert_eq!(bm.degree(v), g.degree(v));
        }
    }

    #[test]
    fn closed_subset_matches_naive_on_random_graphs() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for n in [2usize, 5, 17, 70, 130] {
            let g = gen::gnp(&mut rng, n, 0.15);
            let bm = NeighborBitmap::build(&g);
            for v in 0..n as NodeId {
                for u in 0..n as NodeId {
                    assert_eq!(
                        bm.closed_subset(v, u),
                        naive_closed_subset(&g, v, u),
                        "n={n} v={v} u={u}"
                    );
                }
            }
        }
    }

    #[test]
    fn open_subset_pair_matches_naive_on_random_graphs() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        for n in [3usize, 8, 40, 80] {
            let g = gen::gnp(&mut rng, n, 0.2);
            let bm = NeighborBitmap::build(&g);
            for _ in 0..200 {
                use rand::Rng;
                let v = rng.random_range(0..n) as NodeId;
                let u = rng.random_range(0..n) as NodeId;
                let w = rng.random_range(0..n) as NodeId;
                assert_eq!(
                    bm.open_subset_pair(v, u, w),
                    g.open_covered_by_pair(v, u, w),
                    "n={n} v={v} u={u} w={w}"
                );
            }
        }
    }

    #[test]
    fn refresh_rows_tracks_edge_changes() {
        let mut bm = NeighborBitmap::build(&Graph::from_edges(6, &[(0, 1), (1, 2), (3, 4)]));
        // Edge 2-5 added, 0-1 removed.
        let g = Graph::from_edges(6, &[(1, 2), (3, 4), (2, 5)]);
        bm.refresh_rows(&g, [0u32, 1, 2, 5]);
        let fresh = NeighborBitmap::build(&g);
        for v in 0..6u32 {
            for u in 0..6u32 {
                assert_eq!(bm.contains(v, u), fresh.contains(v, u), "{v},{u}");
            }
        }
    }

    #[test]
    fn union_covers_matches_naive() {
        use rand::Rng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        for _ in 0..30 {
            let g = gen::gnp(&mut rng, 40, 0.15);
            let bm = NeighborBitmap::build(&g);
            let target = rng.random_range(0..40) as NodeId;
            let members: Vec<NodeId> = (0..40u32).filter(|_| rng.random_range(0..4) == 0).collect();
            let naive = g
                .neighbors(target)
                .iter()
                .all(|&x| members.contains(&x) || members.iter().any(|&m| g.has_edge(m, x)));
            assert_eq!(bm.union_covers(target, &members), naive);
        }
    }

    #[test]
    fn union_covers_trivia() {
        let g = gen::star(5);
        let bm = NeighborBitmap::build(&g);
        // Leaves are covered by the centre.
        assert!(bm.union_covers(1, &[0]));
        // The centre needs all leaves.
        assert!(!bm.union_covers(0, &[1, 2, 3]));
        assert!(bm.union_covers(0, &[1, 2, 3, 4]));
        // Isolated target in empty member set: covered iff no neighbours.
        let h = Graph::new(2);
        let bmh = NeighborBitmap::build(&h);
        assert!(bmh.union_covers(0, &[]));
    }

    #[test]
    fn word_boundary_vertices() {
        // Vertices 63, 64, 65 straddle the u64 boundary.
        let g = Graph::from_edges(130, &[(63, 64), (64, 65), (63, 65), (64, 129)]);
        let bm = NeighborBitmap::build(&g);
        assert!(bm.contains(63, 64));
        assert!(bm.contains(129, 64));
        // N[63]={63,64,65} ⊆ N[64]={63,64,65,129}
        assert!(bm.closed_subset(63, 64));
        assert!(!bm.closed_subset(64, 63));
    }

    #[test]
    fn rebuild_into_reuses_capacity_and_matches_fresh_build() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(34);
        let mut bm = NeighborBitmap::new();
        // Shrinking n must not leave stale bits behind, and growing back must
        // not read garbage.
        for n in [130usize, 40, 130, 7, 0, 90] {
            let g = gen::gnp(&mut rng, n, 0.15);
            bm.rebuild_into(&g);
            let fresh = NeighborBitmap::build(&g);
            assert_eq!(bm.n(), fresh.n());
            for v in 0..n as NodeId {
                for u in 0..n as NodeId {
                    assert_eq!(bm.contains(v, u), fresh.contains(v, u), "n={n} {v},{u}");
                }
            }
        }
    }

    #[test]
    fn clear_and_set_edge_assemble_a_topology() {
        let g = Graph::from_edges(70, &[(0, 69), (1, 64), (63, 64), (2, 3)]);
        let mut bm = NeighborBitmap::build(&gen::complete(70));
        bm.clear();
        for v in 0..70u32 {
            for u in 0..70u32 {
                assert!(!bm.contains(v, u), "clear left {v},{u} set");
            }
        }
        for (u, v) in [(0u32, 69u32), (1, 64), (63, 64), (2, 3)] {
            bm.set_edge(u, v);
        }
        bm.set_edge(5, 5); // self-loop: ignored
        let fresh = NeighborBitmap::build(&g);
        for v in 0..70u32 {
            for u in 0..70u32 {
                assert_eq!(bm.contains(v, u), fresh.contains(v, u), "{v},{u}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_edge_rejects_out_of_range() {
        let mut bm = NeighborBitmap::build(&Graph::new(4));
        bm.set_edge(0, 4);
    }
}
