//! Mutable undirected adjacency-list graph.

use serde::{Deserialize, Serialize};

/// Vertex identifier. Vertices are dense indices `0..n`; the paper's
/// distinct host IDs map directly onto them (`id(v) = v`).
pub type NodeId = u32;

/// A simple undirected graph with sorted adjacency lists.
///
/// Self-loops and parallel edges are rejected, matching the paper's simple
/// graph model. Neighbour lists are kept sorted so that neighbourhood set
/// operations and deterministic iteration come for free.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Graph {
    adj: Vec<Vec<NodeId>>,
    m: usize,
}

impl Graph {
    /// Creates a graph with `n` isolated vertices.
    pub fn new(n: usize) -> Self {
        Self {
            adj: vec![Vec::new(); n],
            m: 0,
        }
    }

    /// Builds a graph from an edge list. Duplicate edges are ignored.
    pub fn from_edges(n: usize, edges: &[(NodeId, NodeId)]) -> Self {
        let mut g = Self::new(n);
        for &(u, v) in edges {
            g.add_edge(u, v);
        }
        g
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.adj.len()
    }

    /// Number of edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.m
    }

    /// Whether the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Appends a new isolated vertex and returns its id (always the
    /// current `n`). Node ids are dense, so spawning never invalidates
    /// existing ids.
    pub fn add_vertex(&mut self) -> NodeId {
        let id = self.adj.len() as NodeId;
        self.adj.push(Vec::new());
        id
    }

    /// Adds an undirected edge `{u, v}`. Returns `true` if the edge was new.
    ///
    /// # Panics
    /// Panics on self-loops or out-of-range endpoints.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        assert!(u != v, "self-loops are not allowed in a simple graph");
        assert!(
            (u as usize) < self.n() && (v as usize) < self.n(),
            "edge ({u}, {v}) out of range for n = {}",
            self.n()
        );
        match self.adj[u as usize].binary_search(&v) {
            Ok(_) => false,
            Err(iu) => {
                self.adj[u as usize].insert(iu, v);
                let iv = self.adj[v as usize]
                    .binary_search(&u)
                    .expect_err("adjacency lists out of sync");
                self.adj[v as usize].insert(iv, u);
                self.m += 1;
                true
            }
        }
    }

    /// Removes edge `{u, v}` if present. Returns `true` if it existed.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        if u == v || (u as usize) >= self.n() || (v as usize) >= self.n() {
            return false;
        }
        match self.adj[u as usize].binary_search(&v) {
            Ok(iu) => {
                self.adj[u as usize].remove(iu);
                let iv = self.adj[v as usize]
                    .binary_search(&u)
                    .expect("adjacency lists out of sync");
                self.adj[v as usize].remove(iv);
                self.m -= 1;
                true
            }
            Err(_) => false,
        }
    }

    /// Whether edge `{u, v}` exists.
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        u != v && (u as usize) < self.n() && self.adj[u as usize].binary_search(&v).is_ok()
    }

    /// The open neighbour set `N(v)`, sorted ascending.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.adj[v as usize]
    }

    /// The closed neighbour set `N[v] = N(v) ∪ {v}`, sorted ascending.
    pub fn closed_neighbors(&self, v: NodeId) -> Vec<NodeId> {
        let nv = &self.adj[v as usize];
        let mut out = Vec::with_capacity(nv.len() + 1);
        let mut inserted = false;
        for &u in nv {
            if !inserted && u > v {
                out.push(v);
                inserted = true;
            }
            out.push(u);
        }
        if !inserted {
            out.push(v);
        }
        out
    }

    /// Node degree `nd(v) = |N(v)|`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.adj[v as usize].len()
    }

    /// Iterator over all vertices.
    pub fn vertices(&self) -> std::ops::Range<NodeId> {
        0..self.n() as NodeId
    }

    /// Iterator over each undirected edge once, as `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.adj.iter().enumerate().flat_map(|(u, nbrs)| {
            let u = u as NodeId;
            nbrs.iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Whether the graph is complete (every pair adjacent).
    pub fn is_complete(&self) -> bool {
        let n = self.n();
        n <= 1 || self.m == n * (n - 1) / 2
    }

    /// Maximum degree.
    pub fn max_degree(&self) -> usize {
        self.adj.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Minimum degree.
    pub fn min_degree(&self) -> usize {
        self.adj.iter().map(Vec::len).min().unwrap_or(0)
    }

    /// Average degree (`2m / n`), or 0 for the empty graph.
    pub fn avg_degree(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            2.0 * self.m as f64 / self.n() as f64
        }
    }

    /// Whether two vertices have `N[v] ⊆ N[u]` (closed-neighbourhood
    /// coverage, the Rule 1 condition). Runs on the sorted lists in
    /// O(deg v + deg u); for repeated queries prefer [`crate::NeighborBitmap`].
    pub fn closed_covered_by(&self, v: NodeId, u: NodeId) -> bool {
        // N[v] ⊆ N[u]  <=>  v ∈ N[u]  and  every x ∈ N(v), x ∈ N[u].
        if v != u && !self.has_edge(u, v) {
            return false;
        }
        sorted_subset_with(&self.adj[v as usize], &self.adj[u as usize], &[u, v])
    }

    /// Whether `N(v) ⊆ N(u) ∪ N(w)` (the Rule 2 coverage condition).
    /// `v` itself is allowed on the right implicitly because `v ∈ N(u)` or
    /// `N(w)` whenever u,w are neighbours of v — no special casing needed.
    pub fn open_covered_by_pair(&self, v: NodeId, u: NodeId, w: NodeId) -> bool {
        let nu = &self.adj[u as usize];
        let nw = &self.adj[w as usize];
        self.adj[v as usize]
            .iter()
            .all(|x| nu.binary_search(x).is_ok() || nw.binary_search(x).is_ok())
    }

    /// Removes all edges incident to `v` (the host switches off) without
    /// renumbering vertices.
    pub fn isolate(&mut self, v: NodeId) {
        let nbrs = std::mem::take(&mut self.adj[v as usize]);
        for u in &nbrs {
            let i = self.adj[*u as usize]
                .binary_search(&v)
                .expect("adjacency lists out of sync");
            self.adj[*u as usize].remove(i);
        }
        self.m -= nbrs.len();
    }

    /// Induced subgraph `G[keep]`: returns the subgraph together with the
    /// mapping from new vertex ids to original ids.
    pub fn induced(&self, keep: &[bool]) -> (Graph, Vec<NodeId>) {
        assert_eq!(keep.len(), self.n());
        let mut old_of = Vec::new();
        let mut new_of = vec![NodeId::MAX; self.n()];
        for v in 0..self.n() {
            if keep[v] {
                new_of[v] = old_of.len() as NodeId;
                old_of.push(v as NodeId);
            }
        }
        let mut g = Graph::new(old_of.len());
        for (u, v) in self.edges() {
            if keep[u as usize] && keep[v as usize] {
                g.add_edge(new_of[u as usize], new_of[v as usize]);
            }
        }
        (g, old_of)
    }

    /// Degree histogram: `hist[d]` = number of vertices of degree `d`.
    pub fn degree_histogram(&self) -> Vec<usize> {
        let mut hist = vec![0usize; self.max_degree() + 1];
        for nbrs in &self.adj {
            hist[nbrs.len()] += 1;
        }
        hist
    }

    /// Rebuilds this graph in place as a copy of `src`, reusing each inner
    /// adjacency Vec's capacity where the vertex count allows.
    ///
    /// Unlike clearing and replaying `add_edge` (a binary-search insert per
    /// endpoint), this bulk-copies already-sorted neighbour slices, so it is
    /// O(n + m) and allocation-free once the per-vertex capacities have
    /// reached their high-water marks.
    pub fn rebuild_from<G: crate::Neighbors + ?Sized>(&mut self, src: &G) {
        let n = src.n();
        self.adj.truncate(n);
        for row in &mut self.adj {
            row.clear();
        }
        self.adj.resize_with(n, Vec::new);
        let mut m = 0usize;
        for (v, row) in self.adj.iter_mut().enumerate() {
            let nbrs = src.neighbors(v as NodeId);
            row.extend_from_slice(nbrs);
            m += nbrs.len();
        }
        self.m = m / 2;
    }
}

/// Is `a ⊆ b ∪ extra` for sorted `a`, `b` and a small unsorted `extra`?
fn sorted_subset_with(a: &[NodeId], b: &[NodeId], extra: &[NodeId]) -> bool {
    a.iter()
        .all(|x| extra.contains(x) || b.binary_search(x).is_ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The 5-node example of Figure 1: u-v, u-y, v-w, v-y, w-x.
    /// Vertices: u=0, v=1, w=2, x=3, y=4.
    pub(crate) fn figure1() -> Graph {
        Graph::from_edges(5, &[(0, 1), (0, 4), (1, 2), (1, 4), (2, 3)])
    }

    #[test]
    fn new_graph_is_edgeless() {
        let g = Graph::new(4);
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 0);
        assert!(!g.is_empty());
        assert!(Graph::new(0).is_empty());
    }

    #[test]
    fn add_edge_is_symmetric_and_idempotent() {
        let mut g = Graph::new(3);
        assert!(g.add_edge(0, 2));
        assert!(!g.add_edge(2, 0));
        assert_eq!(g.m(), 1);
        assert!(g.has_edge(0, 2));
        assert!(g.has_edge(2, 0));
        assert!(!g.has_edge(0, 1));
    }

    #[test]
    #[should_panic]
    fn self_loop_panics() {
        Graph::new(2).add_edge(1, 1);
    }

    #[test]
    fn remove_edge() {
        let mut g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        assert!(g.remove_edge(1, 0));
        assert!(!g.remove_edge(0, 1));
        assert_eq!(g.m(), 1);
        assert!(!g.has_edge(0, 1));
        assert!(g.has_edge(1, 2));
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
        let mut g = Graph::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        assert!(!g.is_complete());
        g.add_edge(0, 2);
        assert!(g.is_complete());
        assert!(Graph::new(1).is_complete());
        assert!(Graph::new(0).is_complete());
    }

    #[test]
    fn degree_stats() {
        let g = figure1();
        assert_eq!(g.max_degree(), 3); // v
        assert_eq!(g.min_degree(), 1); // x
        assert!((g.avg_degree() - 2.0).abs() < 1e-12);
        assert_eq!(g.degree_histogram(), vec![0, 1, 3, 1]);
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
    fn isolate_removes_all_incident_edges() {
        let mut g = figure1();
        g.isolate(1); // v
        assert_eq!(g.m(), 2); // u-y and w-x remain
        assert_eq!(g.degree(1), 0);
        assert!(g.has_edge(0, 4));
        assert!(g.has_edge(2, 3));
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
    }

    #[test]
    fn from_edges_ignores_duplicates() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 0), (0, 1)]);
        assert_eq!(g.m(), 1);
    }

    #[test]
    fn add_vertex_appends_an_isolated_host() {
        let mut g = Graph::from_edges(2, &[(0, 1)]);
        let v = g.add_vertex();
        assert_eq!(v, 2);
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 1);
        assert!(g.neighbors(v).is_empty());
        assert!(g.add_edge(v, 0));
        assert_eq!(g.degree(v), 1);
        assert_eq!(g.add_vertex(), 3);
    }

    #[test]
    fn rebuild_from_copies_structure_across_sizes() {
        let mut dst = Graph::new(0);
        // Grow, shrink, grow again — stale rows must not leak through.
        for src in [
            figure1(),
            Graph::from_edges(2, &[(0, 1)]),
            figure1(),
            Graph::new(0),
        ] {
            dst.rebuild_from(&src);
            assert_eq!(dst, src);
        }
    }

    #[test]
    fn rebuild_from_csr_round_trips() {
        let src = figure1();
        let csr = crate::CsrGraph::from(&src);
        let mut dst = Graph::new(3);
        dst.add_edge(0, 1);
        dst.rebuild_from(&csr);
        assert_eq!(dst, src);
    }
}
