//! The Wu-Li marking process.

use pacds_graph::{Graph, NodeId, VertexMask};

/// Runs the marking process on `g` and returns the marker mask.
///
/// ```
/// use pacds_graph::gen;
/// // On a path, every interior host has two unconnected neighbours.
/// let g = gen::path(5);
/// assert_eq!(pacds_core::marking(&g), vec![false, true, true, true, false]);
/// ```
///
/// A vertex `v` is marked (`true`) iff it has two neighbours `x, y` that are
/// not directly connected. This is the distributed Step 3 of the process;
/// Steps 1–2 (initialising markers and exchanging open neighbour sets) are
/// implicit here because a centralised caller already has the whole graph —
/// the faithful message-passing version lives in `pacds-distributed`.
///
/// The paper's Property 1 guarantees the marked set dominates any connected
/// graph that is not complete; Property 2 guarantees the induced subgraph is
/// connected. (On a complete graph nothing is marked: every pair of
/// neighbours is connected.)
pub fn marking(g: &Graph) -> VertexMask {
    let mut marked = Vec::new();
    marking_into(g, &mut marked);
    marked
}

/// [`marking`] writing into a caller-provided mask (cleared and refilled),
/// so the hot path can reuse the allocation across update intervals.
pub fn marking_into(g: &Graph, marked: &mut VertexMask) {
    let _t = pacds_obs::phase_timer(pacds_obs::Phase::Marking);
    marked.clear();
    marked.extend(g.vertices().map(|v| has_unconnected_neighbors(g, v)));
    if pacds_obs::enabled() {
        pacds_obs::add(pacds_obs::Counter::MarkingScanned, marked.len() as u64);
        let hits = marked.iter().filter(|&&m| m).count() as u64;
        pacds_obs::add(pacds_obs::Counter::MarkingMarked, hits);
    }
}

/// Whether `v` has two neighbours that are not adjacent to each other.
///
/// Scans neighbour pairs but bails out on the first witness; for unit-disk
/// graphs the first few pairs almost always decide, so the quadratic worst
/// case is rarely reached.
pub fn has_unconnected_neighbors(g: &Graph, v: NodeId) -> bool {
    let nbrs = g.neighbors(v);
    for (i, &x) in nbrs.iter().enumerate() {
        for &y in &nbrs[i + 1..] {
            if !g.has_edge(x, y) {
                return true;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use pacds_graph::{gen, mask_to_vec, Graph};

    #[test]
    fn figure1_marks_v_and_w() {
        // u=0, v=1, w=2, x=3, y=4; edges u-v, u-y, v-w, v-y, w-x.
        let g = Graph::from_edges(5, &[(0, 1), (0, 4), (1, 2), (1, 4), (2, 3)]);
        assert_eq!(mask_to_vec(&marking(&g)), vec![1, 2]);
    }

    #[test]
    fn complete_graph_marks_nothing() {
        for n in [1usize, 2, 3, 6] {
            let g = gen::complete(n);
            assert!(marking(&g).iter().all(|&m| !m), "K_{n}");
        }
    }

    #[test]
    fn path_marks_interior_vertices() {
        let g = gen::path(6);
        assert_eq!(mask_to_vec(&marking(&g)), vec![1, 2, 3, 4]);
    }

    #[test]
    fn cycle_marks_everything() {
        let g = gen::cycle(5);
        assert!(marking(&g).iter().all(|&m| m));
    }

    #[test]
    fn square_cycle_marks_everything() {
        // C4: each vertex's two neighbours are opposite, non-adjacent.
        let g = gen::cycle(4);
        assert!(marking(&g).iter().all(|&m| m));
    }

    #[test]
    fn star_marks_only_the_center() {
        let g = gen::star(7);
        assert_eq!(mask_to_vec(&marking(&g)), vec![0]);
    }

    #[test]
    fn isolated_and_degree_one_vertices_are_never_marked() {
        let g = Graph::from_edges(4, &[(0, 1)]);
        assert!(marking(&g).iter().all(|&m| !m));
    }

    #[test]
    fn witness_detection() {
        let g = gen::path(3);
        assert!(has_unconnected_neighbors(&g, 1));
        assert!(!has_unconnected_neighbors(&g, 0));
        let k3 = gen::complete(3);
        for v in 0..3 {
            assert!(!has_unconnected_neighbors(&k3, v));
        }
    }
}
