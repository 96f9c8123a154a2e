//! Structural analysis: articulation points and bridges.
//!
//! A gateway that is an articulation point of the backbone is a single
//! point of failure for routing; the routing crate uses these to score the
//! robustness of a gateway set.

use crate::{Graph, NodeId};

/// Articulation points (cut vertices) of `g`, via iterative Tarjan DFS.
pub fn articulation_points(g: &Graph) -> Vec<bool> {
    let n = g.n();
    let mut disc = vec![0u32; n];
    let mut low = vec![0u32; n];
    let mut visited = vec![false; n];
    let mut is_cut = vec![false; n];
    let mut timer = 1u32;

    // Iterative DFS frame: (vertex, parent, next neighbor index).
    let mut stack: Vec<(NodeId, NodeId, usize)> = Vec::new();
    for root in 0..n as NodeId {
        if visited[root as usize] {
            continue;
        }
        visited[root as usize] = true;
        disc[root as usize] = timer;
        low[root as usize] = timer;
        timer += 1;
        let mut root_children = 0usize;
        stack.push((root, NodeId::MAX, 0));
        while let Some(&mut (v, parent, ref mut idx)) = stack.last_mut() {
            let nbrs = g.neighbors(v);
            if *idx < nbrs.len() {
                let u = nbrs[*idx];
                *idx += 1;
                if !visited[u as usize] {
                    visited[u as usize] = true;
                    disc[u as usize] = timer;
                    low[u as usize] = timer;
                    timer += 1;
                    if v == root {
                        root_children += 1;
                    }
                    stack.push((u, v, 0));
                } else if u != parent {
                    low[v as usize] = low[v as usize].min(disc[u as usize]);
                }
            } else {
                stack.pop();
                if let Some(&(p, _, _)) = stack.last() {
                    low[p as usize] = low[p as usize].min(low[v as usize]);
                    if p != root && low[v as usize] >= disc[p as usize] {
                        is_cut[p as usize] = true;
                    }
                }
            }
        }
        is_cut[root as usize] = root_children > 1;
    }
    is_cut
}

/// Bridges (cut edges) of `g`, as `(u, v)` pairs with `u < v`.
pub fn bridges(g: &Graph) -> Vec<(NodeId, NodeId)> {
    let n = g.n();
    let mut disc = vec![0u32; n];
    let mut low = vec![0u32; n];
    let mut visited = vec![false; n];
    let mut out = Vec::new();
    let mut timer = 1u32;
    let mut stack: Vec<(NodeId, NodeId, usize)> = Vec::new();

    for root in 0..n as NodeId {
        if visited[root as usize] {
            continue;
        }
        visited[root as usize] = true;
        disc[root as usize] = timer;
        low[root as usize] = timer;
        timer += 1;
        stack.push((root, NodeId::MAX, 0));
        while let Some(&mut (v, parent, ref mut idx)) = stack.last_mut() {
            let nbrs = g.neighbors(v);
            if *idx < nbrs.len() {
                let u = nbrs[*idx];
                *idx += 1;
                if !visited[u as usize] {
                    visited[u as usize] = true;
                    disc[u as usize] = timer;
                    low[u as usize] = timer;
                    timer += 1;
                    stack.push((u, v, 0));
                } else if u != parent {
                    low[v as usize] = low[v as usize].min(disc[u as usize]);
                }
            } else {
                stack.pop();
                if let Some(&(p, _, _)) = stack.last() {
                    low[p as usize] = low[p as usize].min(low[v as usize]);
                    if low[v as usize] > disc[p as usize] {
                        out.push((p.min(v), p.max(v)));
                    }
                }
            }
        }
    }
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use rand::SeedableRng;

    /// Reference: v is an articulation point iff removing it increases the
    /// component count among the remaining vertices.
    fn naive_cuts(g: &Graph) -> Vec<bool> {
        let base = crate::algo::num_components(g);
        let mut h = Graph::default();
        (0..g.n() as NodeId)
            .map(|v| {
                let mut dropped = vec![false; g.n()];
                dropped[v as usize] = true;
                h.rebuild_from_masked(g, &dropped);
                // Removing v leaves it as its own isolated component.
                let comps_without_v = crate::algo::num_components(&h) - 1;
                comps_without_v > base - usize::from(g.degree(v) == 0)
            })
            .collect()
    }

    #[test]
    fn path_interior_vertices_are_cuts() {
        let g = gen::path(5);
        assert_eq!(
            articulation_points(&g),
            vec![false, true, true, true, false]
        );
        assert_eq!(bridges(&g), vec![(0, 1), (1, 2), (2, 3), (3, 4)]);
    }

    #[test]
    fn cycles_have_no_cuts_or_bridges() {
        let g = gen::cycle(6);
        assert!(articulation_points(&g).iter().all(|&c| !c));
        assert!(bridges(&g).is_empty());
    }

    #[test]
    fn star_center_is_the_only_cut() {
        let g = gen::star(5);
        let cuts = articulation_points(&g);
        assert!(cuts[0]);
        assert!(cuts[1..].iter().all(|&c| !c));
        assert_eq!(bridges(&g).len(), 4);
    }

    #[test]
    fn barbell_bridge() {
        // Two triangles joined by one edge: that edge is the only bridge,
        // its endpoints the only cuts.
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]);
        let cuts = articulation_points(&g);
        assert_eq!(cuts, vec![false, false, true, true, false, false]);
        assert_eq!(bridges(&g), vec![(2, 3)]);
    }

    #[test]
    fn matches_naive_on_random_graphs() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        for _ in 0..40 {
            let g = gen::gnp(&mut rng, 25, 0.08);
            assert_eq!(articulation_points(&g), naive_cuts(&g), "{g:?}");
        }
    }

    #[test]
    fn bridge_endpoints_of_degree_over_one_are_cuts() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(18);
        for _ in 0..20 {
            let g = gen::gnp(&mut rng, 20, 0.1);
            let cuts = articulation_points(&g);
            for (u, v) in bridges(&g) {
                if g.degree(u) > 1 {
                    assert!(cuts[u as usize]);
                }
                if g.degree(v) > 1 {
                    assert!(cuts[v as usize]);
                }
            }
        }
    }

    #[test]
    fn empty_and_tiny_graphs() {
        assert!(articulation_points(&Graph::new(0)).is_empty());
        assert_eq!(articulation_points(&Graph::new(1)), vec![false]);
        let e = Graph::from_edges(2, &[(0, 1)]);
        assert_eq!(articulation_points(&e), vec![false, false]);
        assert_eq!(bridges(&e), vec![(0, 1)]);
    }
}
