//! Undirected graph in compressed-sparse-row form.
//!
//! All adjacency lives in two flat arrays: `offsets[v]..offsets[v + 1]`
//! indexes `targets`, which holds each vertex's neighbours in ascending
//! order. The hot passes (marking sweeps, BFS floods over thousands of
//! Monte-Carlo topologies) read those rows millions of times, and the
//! layout keeps them contiguous, free of per-vertex headers, and shareable
//! across threads.

use crate::ReserveLike;

/// Vertex identifier. Vertices are dense indices `0..n`; the paper's
/// distinct host IDs map directly onto them (`id(v) = v`).
pub type NodeId = u32;

/// A simple undirected graph with sorted neighbour rows.
///
/// Self-loops and parallel edges are rejected, matching the paper's simple
/// graph model. Rows are kept ascending so that neighbourhood set
/// operations and deterministic iteration come for free; equal graphs
/// therefore have equal arrays, and `==` compares adjacency.
///
/// A graph changes only through whole rebuilds that reuse the two arrays:
/// [`Graph::rebuild_from_masked`], [`Graph::rebuild_induced`] and
/// [`crate::gen::unit_disk_csr`]. Once the arrays have reached their
/// high-water capacity none of these touches the heap.
/// `Graph::default()` is the empty reusable slot for them.
#[derive(Debug, PartialEq, Eq)]
pub struct Graph {
    offsets: Vec<u32>,
    targets: Vec<NodeId>,
}

// By hand so that `clone_from` reuses both arrays: restoring a retained
// copy is then allocation-free once warm.
impl Clone for Graph {
    fn clone(&self) -> Self {
        Self {
            offsets: self.offsets.clone(),
            targets: self.targets.clone(),
        }
    }

    fn clone_from(&mut self, src: &Self) {
        self.offsets.clone_from(&src.offsets);
        self.targets.clone_from(&src.targets);
    }
}

impl Default for Graph {
    fn default() -> Self {
        Self::new(0)
    }
}

impl ReserveLike for Graph {
    fn reserve_like(&mut self, other: &Self) {
        self.offsets.reserve_like(&other.offsets);
        self.targets.reserve_like(&other.targets);
    }
}

impl Graph {
    /// Creates a graph with `n` isolated vertices.
    pub fn new(n: usize) -> Self {
        Self {
            offsets: vec![0; n + 1],
            targets: Vec::new(),
        }
    }

    /// Builds a graph from an edge list. Duplicate edges are ignored in
    /// either orientation.
    ///
    /// # Panics
    /// Panics on self-loops, on out-of-range endpoints, and on a list of
    /// more than `u32::MAX / 2` pairs (duplicates included), past which
    /// `2m` could overflow the `u32` row offsets.
    pub fn from_edges(n: usize, edges: &[(NodeId, NodeId)]) -> Self {
        assert!(
            edges.len() <= u32::MAX as usize / 2,
            "2m must fit the u32 row offsets"
        );
        let mut offsets = vec![0u32; n + 1];
        for &(u, v) in edges {
            assert!(u != v, "self-loops are not allowed in a simple graph");
            assert!(
                (u as usize) < n && (v as usize) < n,
                "edge ({u}, {v}) out of range for n = {n}"
            );
            offsets[u as usize + 1] += 1;
            offsets[v as usize + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let mut cursor = offsets.clone();
        let mut targets = vec![0; offsets[n] as usize];
        for &(u, v) in edges {
            targets[cursor[u as usize] as usize] = v;
            cursor[u as usize] += 1;
            targets[cursor[v as usize] as usize] = u;
            cursor[v as usize] += 1;
        }
        // Sort each row and squeeze out its duplicates, compacting left.
        let (mut lo, mut w) = (0usize, 0usize);
        for v in 0..n {
            let hi = offsets[v + 1] as usize;
            targets[lo..hi].sort_unstable();
            let start = w;
            for k in lo..hi {
                let t = targets[k];
                if w == start || targets[w - 1] != t {
                    targets[w] = t;
                    w += 1;
                }
            }
            offsets[v + 1] = w as u32;
            lo = hi;
        }
        targets.truncate(w);
        Self { offsets, targets }
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

    /// Whether the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.n() == 0
    }

    /// Whether edge `{u, v}` exists (binary search on the shorter row).
    ///
    /// # Panics
    /// Panics if `u != v` and either is out of range.
    #[inline]
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

    /// The open neighbour set `N(v)`, sorted ascending.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        &self.targets[lo..hi]
    }

    /// The closed neighbour set `N[v] = N(v) ∪ {v}`, sorted ascending.
    pub fn closed_neighbors(&self, v: NodeId) -> Vec<NodeId> {
        let nv = self.neighbors(v);
        let at = nv.partition_point(|&u| u < v);
        let mut out = Vec::with_capacity(nv.len() + 1);
        out.extend_from_slice(&nv[..at]);
        out.push(v);
        out.extend_from_slice(&nv[at..]);
        out
    }

    /// Node degree `nd(v) = |N(v)|`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as usize
    }

    /// Iterator over all vertices.
    pub fn vertices(&self) -> std::ops::Range<NodeId> {
        0..self.n() as NodeId
    }

    /// Iterator over each undirected edge once, as `(u, v)` with `u < v`,
    /// in ascending `(u, v)` order.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.vertices().flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Whether the graph is complete (every pair adjacent).
    pub fn is_complete(&self) -> bool {
        let n = self.n();
        n <= 1 || self.m() == n * (n - 1) / 2
    }

    /// Maximum degree.
    pub fn max_degree(&self) -> usize {
        self.vertices().map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Minimum degree.
    pub fn min_degree(&self) -> usize {
        self.vertices().map(|v| self.degree(v)).min().unwrap_or(0)
    }

    /// Average degree (`2m / n`), or 0 for the empty graph.
    pub fn avg_degree(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.targets.len() as f64 / self.n() as f64
        }
    }

    /// Whether two vertices have `N[v] ⊆ N[u]` (closed-neighbourhood
    /// coverage, the Rule 1 condition). Runs on the sorted rows in
    /// O(deg v · log deg u); for repeated queries prefer
    /// [`crate::NeighborBitmap`].
    pub fn closed_covered_by(&self, v: NodeId, u: NodeId) -> bool {
        // N[v] ⊆ N[u]  <=>  v ∈ N[u]  and  every x ∈ N(v), x ∈ N[u].
        if v != u && !self.has_edge(u, v) {
            return false;
        }
        let nu = self.neighbors(u);
        self.neighbors(v)
            .iter()
            .all(|x| *x == u || *x == v || nu.binary_search(x).is_ok())
    }

    /// Whether `N(v) ⊆ N(u) ∪ N(w)` (the Rule 2 coverage condition).
    /// `v` itself is allowed on the right implicitly because `v ∈ N(u)` or
    /// `N(w)` whenever u,w are neighbours of v — no special casing needed.
    pub fn open_covered_by_pair(&self, v: NodeId, u: NodeId, w: NodeId) -> bool {
        let nu = self.neighbors(u);
        let nw = self.neighbors(w);
        self.neighbors(v)
            .iter()
            .all(|x| nu.binary_search(x).is_ok() || nw.binary_search(x).is_ok())
    }

    /// Induced subgraph `G[keep]`: returns the subgraph together with the
    /// mapping from new vertex ids to original ids.
    pub fn induced(&self, keep: &[bool]) -> (Graph, Vec<NodeId>) {
        assert_eq!(keep.len(), self.n());
        let old_of = crate::mask_to_vec(keep);
        let mut g = Graph::default();
        g.rebuild_induced(self, &old_of, &mut Vec::new());
        (g, old_of)
    }

    /// Rebuilds this graph in place as a copy of `src` with every vertex in
    /// `dropped` isolated (its edges removed, vertex count preserved),
    /// reusing the offset and target storage.
    ///
    /// This is the survivor-topology step of the extended-lifetime loop:
    /// depleted hosts leave the network but keep their slot so masks and
    /// energy vectors stay index-aligned.
    ///
    /// # Panics
    /// Panics if `dropped.len() != src.n()`.
    pub fn rebuild_from_masked(&mut self, src: &Graph, dropped: &[bool]) {
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
    pub fn rebuild_induced(&mut self, src: &Graph, nodes: &[NodeId], g2l: &mut Vec<u32>) {
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

    /// Direct access to the raw arrays for in-crate builders
    /// ([`crate::gen::unit_disk_csr`] writes edges straight into them).
    #[inline]
    pub(crate) fn parts_mut(&mut self) -> (&mut Vec<u32>, &mut Vec<NodeId>) {
        (&mut self.offsets, &mut self.targets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use rand::SeedableRng;

    /// The 5-node example of Figure 1: u-v, u-y, v-w, v-y, w-x.
    /// Vertices: u=0, v=1, w=2, x=3, y=4.
    fn figure1() -> Graph {
        Graph::from_edges(5, &[(0, 1), (0, 4), (1, 2), (1, 4), (2, 3)])
    }

    /// `g` with every vertex in `dropped` isolated, built from the
    /// filtered edge list.
    fn without(g: &Graph, dropped: &[bool]) -> Graph {
        let edges: Vec<_> = g
            .edges()
            .filter(|&(u, v)| !dropped[u as usize] && !dropped[v as usize])
            .collect();
        Graph::from_edges(g.n(), &edges)
    }

    #[test]
    fn new_graph_is_edgeless() {
        let g = Graph::new(4);
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 0);
        assert!(!g.is_empty());
        assert_eq!(g.degree(3), 0);
        assert!(g.neighbors(0).is_empty());
        assert!(Graph::new(0).is_empty());
    }

    #[test]
    fn default_is_the_empty_graph() {
        let g = Graph::default();
        assert_eq!((g.n(), g.m()), (0, 0));
        assert_eq!(g, Graph::new(0));
        assert_eq!(g, Graph::from_edges(0, &[]));
    }

    #[test]
    fn from_edges_is_symmetric_and_idempotent() {
        let g = Graph::from_edges(3, &[(0, 2)]);
        assert_eq!(g.m(), 1);
        assert!(g.has_edge(0, 2));
        assert!(g.has_edge(2, 0));
        assert!(!g.has_edge(0, 1));
        assert!(!g.has_edge(0, 0));
        // The same edge repeated and in either orientation is one edge.
        assert_eq!(Graph::from_edges(3, &[(0, 2), (2, 0), (0, 2)]), g);
    }

    #[test]
    fn from_edges_ignores_reversed_and_duplicated_pairs() {
        let fig = figure1();
        let mut edges: Vec<_> = fig.edges().collect();
        let reversed: Vec<_> = edges.iter().map(|&(u, v)| (v, u)).collect();
        assert_eq!(Graph::from_edges(5, &reversed), fig);
        edges.extend(reversed.iter().rev());
        edges.extend(fig.edges());
        let g = Graph::from_edges(5, &edges);
        assert_eq!(g, fig);
        assert_eq!(g.m(), 5);
        assert_eq!(g.edges().count(), 5);
        for v in g.vertices() {
            assert!(g.neighbors(v).windows(2).all(|w| w[0] < w[1]), "row {v}");
        }
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_panics() {
        Graph::from_edges(2, &[(1, 1)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_endpoint_panics() {
        Graph::from_edges(2, &[(0, 2)]);
    }

    #[test]
    fn neighbors_are_sorted() {
        let g = Graph::from_edges(5, &[(2, 4), (2, 0), (2, 3), (2, 1)]);
        assert_eq!(g.neighbors(2), &[0, 1, 3, 4]);
        assert_eq!(g.degree(2), 4);
    }

    #[test]
    fn closed_neighbors_inserts_self_in_order() {
        let g = Graph::from_edges(5, &[(2, 0), (2, 4)]);
        assert_eq!(g.closed_neighbors(2), vec![0, 2, 4]);
        assert_eq!(g.closed_neighbors(0), vec![0, 2]);
        assert_eq!(g.closed_neighbors(4), vec![2, 4]);
        assert_eq!(g.closed_neighbors(1), vec![1]);
    }

    #[test]
    fn edges_iterates_each_once() {
        let g = figure1();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 4), (1, 2), (1, 4), (2, 3)]);
        assert_eq!(edges.len(), g.m());
    }

    #[test]
    fn complete_detection() {
        assert!(!Graph::from_edges(3, &[(0, 1), (1, 2)]).is_complete());
        assert!(Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]).is_complete());
        assert!(gen::complete(5).is_complete());
        assert!(!gen::path(5).is_complete());
        assert!(Graph::new(1).is_complete());
        assert!(Graph::new(0).is_complete());
    }

    #[test]
    fn degree_stats() {
        let g = figure1();
        assert_eq!(g.max_degree(), 3); // v
        assert_eq!(g.min_degree(), 1); // x
        assert!((g.avg_degree() - 2.0).abs() < 1e-12);
        assert_eq!(Graph::new(0).avg_degree(), 0.0);
    }

    #[test]
    fn closed_coverage_rule1_condition() {
        // Figure 3(a) shape: N[v] ⊆ N[u]: v-u, v-a, u-a, u-b.
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (1, 2), (1, 3)]);
        assert!(g.closed_covered_by(0, 1)); // N[0]={0,1,2} ⊆ N[1]={0,1,2,3}
        assert!(!g.closed_covered_by(1, 0));
        // Equal closed neighbourhoods cover each other.
        let h = Graph::from_edges(3, &[(0, 1), (0, 2), (1, 2)]);
        assert!(h.closed_covered_by(0, 1) && h.closed_covered_by(1, 0));
    }

    #[test]
    fn closed_coverage_requires_adjacency() {
        // Isolated-ish: v not adjacent to u => N[v] can't be ⊆ N[u] (v ∉ N[u]).
        let g = Graph::from_edges(3, &[(1, 2)]);
        assert!(!g.closed_covered_by(0, 1));
        // but v is always covered by itself
        assert!(g.closed_covered_by(0, 0));
    }

    #[test]
    fn open_pair_coverage_rule2_condition() {
        // Path a - u - v - w - b: N(v)={u,w} ⊆ N(u) ∪ N(w) = {a,v} ∪ {v,b}? no.
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        assert!(!g.open_covered_by_pair(2, 1, 3));
        // Triangle plus pendant on u: N(v) = {u, w} with u-w edge.
        let t = Graph::from_edges(4, &[(0, 1), (1, 2), (0, 2), (0, 3)]);
        assert!(t.open_covered_by_pair(1, 0, 2)); // N(1)={0,2} ⊆ N(0)∪N(2)
    }

    #[test]
    fn induced_subgraph_maps_ids() {
        let g = figure1();
        let keep = vec![false, true, true, false, true]; // v, w, y
        let (sub, old_of) = g.induced(&keep);
        assert_eq!(old_of, vec![1, 2, 4]);
        assert_eq!(sub.n(), 3);
        // edges among {v,w,y}: v-w, v-y
        assert_eq!(sub.m(), 2);
        assert!(sub.has_edge(0, 1)); // v-w
        assert!(sub.has_edge(0, 2)); // v-y
        assert!(!sub.has_edge(1, 2));
        let (none, old_of) = g.induced(&[false; 5]);
        assert_eq!((none.n(), old_of.len()), (0, 0));
    }

    #[test]
    fn rebuild_from_masked_isolates_dropped_vertices() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let g = gen::gnp(&mut rng, 50, 0.2);
        let mut dropped = vec![false; 50];
        for i in [3usize, 17, 17, 44, 0] {
            dropped[i] = true;
        }
        let mut c = Graph::default();
        c.rebuild_from_masked(&g, &dropped);
        assert_eq!(c, without(&g, &dropped));
        assert_eq!(c.n(), 50);
        assert_eq!(c.degree(17), 0);
    }

    #[test]
    fn rebuild_from_masked_none_dropped_is_identity() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let g = gen::gnp(&mut rng, 30, 0.2);
        let mut c = Graph::default();
        c.rebuild_from_masked(&g, &[false; 30]);
        assert_eq!(c, g);
    }

    #[test]
    fn rebuilds_reuse_one_slot_across_sizes() {
        // Grow, shrink, grow again — stale rows must not leak through.
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let mut c = Graph::default();
        for n in [60usize, 10, 80, 0, 25] {
            let g = gen::gnp(&mut rng, n, 0.12);
            c.rebuild_from_masked(&g, &vec![false; n]);
            assert_eq!(c, g, "n={n}");
        }
    }

    #[test]
    fn rebuild_induced_matches_manual_relabelling() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(10);
        let g = gen::gnp(&mut rng, 70, 0.15);
        let mut c = Graph::default();
        let mut g2l = Vec::new();
        let subsets: Vec<Vec<NodeId>> = vec![
            vec![],
            vec![42],
            (0..70u32).step_by(4).collect(),
            (0..70u32).collect(),
        ];
        for nodes in &subsets {
            c.rebuild_induced(&g, nodes, &mut g2l);
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
}
