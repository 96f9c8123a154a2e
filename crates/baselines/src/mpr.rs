//! Multipoint-relay (MPR) based CDS — the OLSR-style baseline.
//!
//! Each host greedily selects a minimal set of neighbours (its *multipoint
//! relays*) that covers its 2-hop neighbourhood. The Adjih–Jacquet–Viennot
//! rule then extracts a connected dominating set:
//!
//! a host `v` joins the CDS iff
//! 1. `v` has the smallest id in its closed neighbourhood, **or**
//! 2. `v` is a multipoint relay of its smallest-id neighbour.
//!
//! Like the marking process this uses only 2-hop information, making it a
//! natural contemporary baseline for the paper's rules.

use pacds_graph::{Graph, NodeId, VertexMask};

/// Greedy multipoint-relay selection for `v`: the smallest (greedy) subset
/// of `N(v)` covering every strict 2-hop neighbour of `v`.
///
/// Classic heuristic: first take neighbours that are the *only* cover of
/// some 2-hop host, then repeatedly take the neighbour covering the most
/// uncovered 2-hop hosts (ties to the higher degree, then smaller id).
pub fn mpr_set(g: &Graph, v: NodeId) -> Vec<NodeId> {
    let n1 = g.neighbors(v);
    // Strict 2-hop neighbourhood: reachable via a neighbour, not v itself,
    // not a direct neighbour.
    let mut in_n1 = vec![false; g.n()];
    for &u in n1 {
        in_n1[u as usize] = true;
    }
    let mut two_hop: Vec<NodeId> = Vec::new();
    let mut seen = vec![false; g.n()];
    for &u in n1 {
        for &w in g.neighbors(u) {
            if w != v && !in_n1[w as usize] && !seen[w as usize] {
                seen[w as usize] = true;
                two_hop.push(w);
            }
        }
    }
    if two_hop.is_empty() {
        return Vec::new();
    }

    let mut covered = vec![false; g.n()];
    let mut uncovered = two_hop.len();
    let mut relays: Vec<NodeId> = Vec::new();
    let mut chosen = vec![false; g.n()];

    let cover_with = |u: NodeId,
                      covered: &mut Vec<bool>,
                      uncovered: &mut usize,
                      relays: &mut Vec<NodeId>,
                      chosen: &mut Vec<bool>| {
        if chosen[u as usize] {
            return;
        }
        chosen[u as usize] = true;
        relays.push(u);
        for &w in g.neighbors(u) {
            if seen[w as usize] && !covered[w as usize] {
                covered[w as usize] = true;
                *uncovered -= 1;
            }
        }
    };

    // Mandatory relays: sole covers of some 2-hop host.
    for &w in &two_hop {
        let mut covers = n1.iter().copied().filter(|&u| g.has_edge(u, w));
        if let (Some(only), None) = (covers.next(), covers.next()) {
            cover_with(only, &mut covered, &mut uncovered, &mut relays, &mut chosen);
        }
    }

    // Greedy completion.
    while uncovered > 0 {
        let best = n1
            .iter()
            .copied()
            .filter(|&u| !chosen[u as usize])
            .max_by_key(|&u| {
                let gain = g
                    .neighbors(u)
                    .iter()
                    .filter(|&&w| seen[w as usize] && !covered[w as usize])
                    .count();
                (gain, g.degree(u), std::cmp::Reverse(u))
            })
            .expect("two-hop hosts are reachable through some neighbour");
        cover_with(best, &mut covered, &mut uncovered, &mut relays, &mut chosen);
    }
    relays.sort_unstable();
    relays
}

/// The Adjih–Jacquet–Viennot MPR-based CDS.
pub fn mpr_cds(g: &Graph) -> VertexMask {
    let n = g.n();
    let mut cds = vec![false; n];
    // Precompute each host's MPR set.
    let mprs: Vec<Vec<NodeId>> = (0..n as NodeId).map(|v| mpr_set(g, v)).collect();
    for v in 0..n as NodeId {
        let min_nbr = g.neighbors(v).iter().copied().min();
        // Rule 1: smallest id in the closed neighbourhood.
        let smallest = min_nbr.is_none_or(|m| v < m);
        if smallest {
            cds[v as usize] = true;
            continue;
        }
        // Rule 2: MPR of its smallest-id neighbour.
        let smallest_nbr = min_nbr.expect("non-smallest host has a neighbour");
        if mprs[smallest_nbr as usize].contains(&v) {
            cds[v as usize] = true;
        }
    }
    cds
}

#[cfg(test)]
mod tests {
    use super::*;
    use pacds_core::verify_cds;
    use pacds_graph::{gen, mask_to_vec};
    use rand::SeedableRng;

    #[test]
    fn mpr_set_covers_two_hop_neighbors() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        for _ in 0..20 {
            let g = gen::connected_gnp(&mut rng, 25, 0.12, 8);
            for v in 0..g.n() as NodeId {
                let relays = mpr_set(&g, v);
                // Every strict 2-hop host must be adjacent to some relay.
                let n1: Vec<NodeId> = g.neighbors(v).to_vec();
                for w in 0..g.n() as NodeId {
                    if w == v || n1.contains(&w) {
                        continue;
                    }
                    let two_hop = n1.iter().any(|&u| g.has_edge(u, w));
                    if two_hop {
                        assert!(
                            relays.iter().any(|&r| g.has_edge(r, w)),
                            "v={v} w={w} uncovered by {relays:?}"
                        );
                    }
                }
                // Relays are neighbours of v.
                assert!(relays.iter().all(|&r| g.has_edge(v, r)));
            }
        }
    }

    #[test]
    fn mpr_set_of_a_path_interior() {
        let g = gen::path(5);
        // Node 2's 2-hop hosts are 0 and 4; both neighbours are mandatory.
        assert_eq!(mpr_set(&g, 2), vec![1, 3]);
        // Endpoints have a single 2-hop host via their only neighbour.
        assert_eq!(mpr_set(&g, 0), vec![1]);
    }

    #[test]
    fn star_center_needs_no_relays() {
        let g = gen::star(6);
        assert!(mpr_set(&g, 0).is_empty());
        // Leaves relay through the centre.
        assert_eq!(mpr_set(&g, 3), vec![0]);
    }

    #[test]
    fn mpr_cds_is_a_cds_on_random_connected_graphs() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        for trial in 0..30 {
            let n = 5 + trial % 35;
            let g = gen::connected_gnp(&mut rng, n, 0.15, 8);
            let cds = mpr_cds(&g);
            assert!(verify_cds(&g, &cds).is_ok(), "trial {trial}: {g:?}");
        }
    }

    #[test]
    fn mpr_cds_on_unit_disks() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(10);
        let bounds = pacds_geom::Rect::paper_arena();
        for _ in 0..10 {
            let pts = pacds_geom::placement::uniform_points(&mut rng, bounds, 50);
            let full = gen::unit_disk(bounds, 25.0, &pts);
            let keep = pacds_graph::algo::largest_component(&full);
            let (g, _) = full.induced(&keep);
            if g.n() < 3 {
                continue;
            }
            let cds = mpr_cds(&g);
            assert!(verify_cds(&g, &cds).is_ok());
        }
    }

    #[test]
    fn mpr_cds_of_complete_graph_is_the_smallest_id() {
        let g = gen::complete(5);
        assert_eq!(mask_to_vec(&mpr_cds(&g)), vec![0]);
    }

    #[test]
    fn isolated_vertices_join_the_set() {
        let g = pacds_graph::Graph::new(3);
        // Each isolated vertex is trivially smallest in its neighbourhood.
        assert_eq!(mpr_cds(&g), vec![true, true, true]);
    }
}
