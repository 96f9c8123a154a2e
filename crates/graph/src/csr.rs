//! Immutable compressed-sparse-row graph view.
//!
//! Hot passes (marking sweeps, BFS floods over thousands of Monte-Carlo
//! topologies) iterate neighbour lists millions of times. A CSR layout puts
//! all adjacency in two flat arrays, eliminating per-node Vec headers and
//! improving locality, and is trivially shareable across threads.

use crate::{Graph, Neighbors, NodeId};

/// An undirected graph in CSR form.
///
/// Changes only through in-place rebuilds and patches. The hot path
/// reconstructs it each update interval via [`CsrGraph::rebuild_from`] /
/// [`crate::gen::unit_disk_csr`], reusing the two flat arrays so the
/// steady-state interval loop never touches the heap. When hosts only
/// switch off, [`CsrGraph::isolate_in_place`] patches the rows they touch
/// instead of rebuilding the whole graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrGraph {
    offsets: Vec<u32>,
    targets: Vec<NodeId>,
}

impl Default for CsrGraph {
    fn default() -> Self {
        Self {
            offsets: vec![0],
            targets: Vec::new(),
        }
    }
}

impl CsrGraph {
    /// An empty graph (zero vertices); a reusable slot for
    /// [`CsrGraph::rebuild_from`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.targets.len() / 2
    }

    /// Neighbours of `v`, sorted ascending.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        &self.targets[lo..hi]
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as usize
    }

    /// Whether edge `{u, v}` exists (binary search on the shorter list).
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        if u == v {
            return false;
        }
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Iterator over all vertices.
    pub fn vertices(&self) -> std::ops::Range<NodeId> {
        0..self.n() as NodeId
    }

    /// Rebuilds this graph in place as a copy of `src`, reusing the offset
    /// and target storage (allocation-free once warm).
    pub fn rebuild_from<G: Neighbors + ?Sized>(&mut self, src: &G) {
        let n = src.n();
        self.offsets.clear();
        self.targets.clear();
        self.offsets.reserve(n + 1);
        self.offsets.push(0);
        for v in 0..n as NodeId {
            self.targets.extend_from_slice(src.neighbors(v));
            self.offsets.push(self.targets.len() as u32);
        }
    }

    /// Rebuilds this graph in place as a copy of `src` with every vertex in
    /// `dropped` isolated (its edges removed, vertex count preserved).
    ///
    /// This is the survivor-topology step of the extended-lifetime loop:
    /// depleted hosts leave the network but keep their slot so masks and
    /// energy vectors stay index-aligned.
    ///
    /// # Panics
    /// Panics if `dropped.len() != src.n()`.
    pub fn rebuild_from_masked<G: Neighbors + ?Sized>(&mut self, src: &G, dropped: &[bool]) {
        let n = src.n();
        assert_eq!(dropped.len(), n, "mask length must equal vertex count");
        self.offsets.clear();
        self.targets.clear();
        self.offsets.reserve(n + 1);
        self.offsets.push(0);
        for v in 0..n as NodeId {
            if !dropped[v as usize] {
                self.targets.extend(
                    src.neighbors(v)
                        .iter()
                        .copied()
                        .filter(|&u| !dropped[u as usize]),
                );
            }
            self.offsets.push(self.targets.len() as u32);
        }
    }

    /// Rebuilds this graph in place as the subgraph of `src` induced by
    /// `nodes`, relabelled so local vertex `i` stands for `nodes[i]`.
    /// Because neighbour rows of `src` are ascending, passing `nodes` in
    /// ascending order yields ascending local rows whose order agrees with
    /// global id order — the invariant the sharded engine's priority
    /// tie-breaks rely on.
    ///
    /// `g2l` is caller-retained scratch (global-to-local map). Every entry
    /// must be `u32::MAX` on entry; the method restores that before
    /// returning, touching only the `nodes` entries, so repeated calls are
    /// `O(|nodes| + induced edges)` and allocation-free once `g2l` has
    /// grown to `src.n()`.
    ///
    /// # Panics
    /// Panics if `nodes` contains duplicates (debug builds also check
    /// ascending order).
    pub fn rebuild_induced<G: Neighbors + ?Sized>(
        &mut self,
        src: &G,
        nodes: &[NodeId],
        g2l: &mut Vec<u32>,
    ) {
        debug_assert!(nodes.windows(2).all(|w| w[0] < w[1]), "nodes must ascend");
        if g2l.len() < src.n() {
            g2l.resize(src.n(), u32::MAX);
        }
        for (li, &g) in nodes.iter().enumerate() {
            assert_eq!(g2l[g as usize], u32::MAX, "duplicate node {g}");
            g2l[g as usize] = li as u32;
        }
        self.offsets.clear();
        self.targets.clear();
        self.offsets.reserve(nodes.len() + 1);
        self.offsets.push(0);
        for &g in nodes {
            for &u in src.neighbors(g) {
                let lu = g2l[u as usize];
                if lu != u32::MAX {
                    self.targets.push(lu);
                }
            }
            self.offsets.push(self.targets.len() as u32);
        }
        for &g in nodes {
            g2l[g as usize] = u32::MAX;
        }
    }

    /// Isolates every vertex in `dead` in place: their rows are emptied
    /// and they are removed from their neighbours' rows. The vertex count
    /// is kept and rows stay ascending, so the result equals a rebuild of
    /// the graph without those vertices' edges (for a unit-disk graph: a
    /// fresh [`crate::gen::unit_disk_csr`] with them in the off-mask).
    ///
    /// Only the rows of `dead` and of their neighbours are rewritten; the
    /// rows between them are block-moved left over the removed entries.
    /// `dead` may be in any order, hold duplicates and already isolated
    /// vertices; it doubles as the sorted list of touched rows and is left
    /// empty, so with a retained `dead` the call is allocation-free once
    /// that buffer has grown to the largest batch's `Σ (1 + degree)`.
    ///
    /// # Panics
    /// Panics if a vertex is out of range, if the graph has 2³¹ or more
    /// vertices, or if a row lacks its mirror entry (asymmetric input).
    pub fn isolate_in_place(&mut self, dead: &mut Vec<NodeId>) {
        // Removed entries are tagged with the top bit. Tagging keeps every
        // row ascending under `& !GONE`, so the mirror lookups below can
        // still binary-search rows that earlier vertices already tagged.
        const GONE: NodeId = 1 << 31;
        assert!(self.n() <= GONE as usize, "vertex ids must fit in 31 bits");
        for &u in dead.iter() {
            let u = u as usize;
            let (lo, hi) = (self.offsets[u] as usize, self.offsets[u + 1] as usize);
            for k in lo..hi {
                let v = (self.targets[k] & !GONE) as usize;
                self.targets[k] |= GONE;
                let (vlo, vhi) = (self.offsets[v] as usize, self.offsets[v + 1] as usize);
                let at = self.targets[vlo..vhi]
                    .binary_search_by_key(&(u as NodeId), |&t| t & !GONE)
                    .expect("CSR rows must be symmetric");
                self.targets[vlo + at] |= GONE;
            }
        }
        // Every row holding a tagged entry: the dead and their neighbours.
        let kills = dead.len();
        for i in 0..kills {
            let u = dead[i] as usize;
            let (lo, hi) = (self.offsets[u] as usize, self.offsets[u + 1] as usize);
            dead.extend(self.targets[lo..hi].iter().map(|&t| t & !GONE));
        }
        dead.sort_unstable();
        dead.dedup();

        // One forward pass over the touched rows. `offsets[r]` already holds
        // row r's new start when row r is reached; `offsets[r + 1]` still
        // holds its old end. `shift` is the number of entries removed so far.
        let mut shift = 0usize;
        let mut next = dead.first().map_or(0, |&r| r as usize);
        for &r in dead.iter() {
            let r = r as usize;
            self.shift_rows(next, r, shift);
            let start = self.offsets[r] as usize;
            let end = self.offsets[r + 1] as usize;
            let mut w = start;
            for k in start + shift..end {
                let t = self.targets[k];
                if t & GONE == 0 {
                    self.targets[w] = t;
                    w += 1;
                }
            }
            shift = end - w;
            self.offsets[r + 1] = w as u32;
            next = r + 1;
        }
        let n = self.n();
        self.shift_rows(next, n, shift);
        self.targets.truncate(self.targets.len() - shift);
        dead.clear();
    }

    /// Moves the untouched rows `from..to` left by `shift` entries (part of
    /// [`Self::isolate_in_place`]'s pass: `offsets[from]` is already new,
    /// `offsets[from + 1..=to]` are still old).
    fn shift_rows(&mut self, from: usize, to: usize, shift: usize) {
        if shift == 0 || from >= to {
            return;
        }
        let lo = self.offsets[from] as usize + shift;
        let hi = self.offsets[to] as usize;
        self.targets.copy_within(lo..hi, lo - shift);
        for o in &mut self.offsets[from + 1..=to] {
            *o -= shift as u32;
        }
    }

    /// Direct access to the raw arrays for in-crate builders
    /// ([`crate::gen::unit_disk_csr`] writes edges straight into them).
    #[inline]
    pub(crate) fn parts_mut(&mut self) -> (&mut Vec<u32>, &mut Vec<NodeId>) {
        (&mut self.offsets, &mut self.targets)
    }
}

impl From<&Graph> for CsrGraph {
    fn from(g: &Graph) -> Self {
        let n = g.n();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(2 * g.m());
        offsets.push(0);
        for v in 0..n as NodeId {
            targets.extend_from_slice(g.neighbors(v));
            offsets.push(targets.len() as u32);
        }
        Self { offsets, targets }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use rand::SeedableRng;

    #[test]
    fn conversion_preserves_structure() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let g = gen::gnp(&mut rng, 60, 0.1);
        let c = CsrGraph::from(&g);
        assert_eq!(c.n(), g.n());
        assert_eq!(c.m(), g.m());
        for v in 0..g.n() as NodeId {
            assert_eq!(c.neighbors(v), g.neighbors(v));
            assert_eq!(c.degree(v), g.degree(v));
        }
        for u in 0..g.n() as NodeId {
            for v in 0..g.n() as NodeId {
                assert_eq!(c.has_edge(u, v), g.has_edge(u, v));
            }
        }
    }

    #[test]
    fn empty_and_edgeless_graphs() {
        let c = CsrGraph::from(&Graph::new(0));
        assert_eq!(c.n(), 0);
        assert_eq!(c.m(), 0);
        let c = CsrGraph::from(&Graph::new(3));
        assert_eq!(c.n(), 3);
        assert_eq!(c.degree(2), 0);
        assert!(c.neighbors(0).is_empty());
    }

    #[test]
    fn default_is_empty() {
        let c = CsrGraph::new();
        assert_eq!(c.n(), 0);
        assert_eq!(c.m(), 0);
    }

    #[test]
    fn rebuild_from_matches_conversion_across_sizes() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let mut c = CsrGraph::new();
        for n in [60usize, 10, 80, 0, 25] {
            let g = gen::gnp(&mut rng, n, 0.12);
            c.rebuild_from(&g);
            assert_eq!(c, CsrGraph::from(&g), "n={n}");
        }
    }

    #[test]
    fn rebuild_from_csr_source() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let g = gen::gnp(&mut rng, 40, 0.15);
        let src = CsrGraph::from(&g);
        let mut c = CsrGraph::new();
        c.rebuild_from(&src);
        assert_eq!(c, src);
    }

    #[test]
    fn rebuild_from_masked_isolates_dropped_vertices() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let g = gen::gnp(&mut rng, 50, 0.2);
        let mut dropped = vec![false; 50];
        for i in [3usize, 17, 17, 44, 0] {
            dropped[i] = true;
        }
        let mut c = CsrGraph::new();
        c.rebuild_from_masked(&g, &dropped);
        // Reference: clone + isolate.
        let mut h = g.clone();
        for (i, &d) in dropped.iter().enumerate() {
            if d {
                h.isolate(i as NodeId);
            }
        }
        assert_eq!(c, CsrGraph::from(&h));
        assert_eq!(c.n(), 50);
        assert_eq!(c.degree(17), 0);
    }

    #[test]
    fn isolate_in_place_matches_masked_rebuild() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        let g = gen::gnp(&mut rng, 60, 0.15);
        let mut c = CsrGraph::from(&g);
        let mut dropped = vec![false; 60];
        let mut dead = Vec::new();
        // Unsorted, duplicated, both id-range ends, an empty batch, and 7
        // again once it is already isolated.
        let batches: [&[NodeId]; 5] = [&[59, 0, 0], &[31, 7, 44, 30], &[], &[7, 12], &[45, 2]];
        for batch in batches {
            for &v in batch {
                dropped[v as usize] = true;
            }
            dead.extend_from_slice(batch);
            c.isolate_in_place(&mut dead);
            assert!(dead.is_empty(), "the pending list is consumed");
            let mut want = CsrGraph::new();
            want.rebuild_from_masked(&g, &dropped);
            assert_eq!(c, want, "after {batch:?}");
        }
    }

    #[test]
    fn rebuild_induced_matches_manual_relabelling() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(10);
        let g = gen::gnp(&mut rng, 70, 0.15);
        let src = CsrGraph::from(&g);
        let mut c = CsrGraph::new();
        let mut g2l = Vec::new();
        let subsets: Vec<Vec<NodeId>> = vec![
            vec![],
            vec![42],
            (0..70u32).step_by(4).collect(),
            (0..70u32).collect(),
        ];
        for nodes in &subsets {
            c.rebuild_induced(&src, nodes, &mut g2l);
            assert_eq!(c.n(), nodes.len());
            for (li, &gi) in nodes.iter().enumerate() {
                let expected: Vec<u32> = nodes
                    .iter()
                    .enumerate()
                    .filter(|&(_, &gj)| g.has_edge(gi, gj))
                    .map(|(lj, _)| lj as u32)
                    .collect();
                assert_eq!(c.neighbors(li as NodeId), &expected[..]);
            }
            // The scratch map is restored, so back-to-back calls work.
            assert!(g2l.iter().all(|&x| x == u32::MAX));
        }
    }

    #[test]
    fn rebuild_from_masked_none_dropped_is_identity() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let g = gen::gnp(&mut rng, 30, 0.2);
        let mut c = CsrGraph::new();
        c.rebuild_from_masked(&g, &[false; 30]);
        assert_eq!(c, CsrGraph::from(&g));
    }
}
