//! Property-based tests for the graph substrate.

use pacds_geom::{placement, Point2, Rect};
use pacds_graph::{algo, gen, Graph, NeighborBitmap, NodeId};
use proptest::prelude::*;
use rand::SeedableRng;

fn random_graph() -> impl Strategy<Value = Graph> {
    (1usize..60, 0.0f64..0.5, any::<u64>()).prop_map(|(n, p, seed)| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        gen::gnp(&mut rng, n, p)
    })
}

/// A random arena anywhere in the plane, a radius from a tiny fraction of
/// it to more than its size, and points that may fall outside it (binning
/// clamps them into the arena; distances use their true positions).
fn random_arena_points() -> impl Strategy<Value = (Rect, f64, Vec<Point2>)> {
    (
        (
            -100.0f64..100.0,
            -100.0f64..100.0,
            1.0f64..300.0,
            1.0f64..300.0,
        ),
        0.5f64..80.0,
        (0usize..150, 0.0f64..0.5, any::<u64>()),
    )
        .prop_map(|((x0, y0, w, h), radius, (n, spill, seed))| {
            let bounds = Rect::new(x0, y0, x0 + w, y0 + h);
            let around = Rect::new(
                x0 - spill * w,
                y0 - spill * h,
                x0 + w + spill * w,
                y0 + h + spill * h,
            );
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            (
                bounds,
                radius,
                placement::uniform_points(&mut rng, around, n),
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(150))]

    #[test]
    fn handshake_lemma(g in random_graph()) {
        let degree_sum: usize = (0..g.n() as NodeId).map(|v| g.degree(v)).sum();
        prop_assert_eq!(degree_sum, 2 * g.m());
        prop_assert_eq!(g.edges().count(), g.m());
    }

    #[test]
    fn adjacency_is_symmetric(g in random_graph()) {
        for (u, v) in g.edges() {
            prop_assert!(g.has_edge(u, v) && g.has_edge(v, u));
            prop_assert!(g.neighbors(u).contains(&v));
            prop_assert!(g.neighbors(v).contains(&u));
        }
    }

    #[test]
    fn unit_disk_grid_equals_naive(
        (bounds, radius, pts) in random_arena_points(),
        stride in 1usize..4,
    ) {
        let whole = gen::unit_disk(bounds, radius, &pts);
        prop_assert_eq!(&whole, &gen::unit_disk_naive(radius, &pts));
        // The induced-subgraph build bins over the subset's own bounding
        // box; it must agree with the whole graph restricted to the subset.
        let subset: Vec<u32> = (0..pts.len() as u32).step_by(stride).collect();
        let mut sub = Graph::default();
        gen::unit_disk_csr_subset(radius, &pts, &subset, &mut sub, &mut gen::UnitDiskScratch::new());
        for (li, &g) in subset.iter().enumerate() {
            let row: Vec<u32> = sub.neighbors(li as NodeId).iter().map(|&lj| subset[lj as usize]).collect();
            let expected: Vec<u32> =
                whole.neighbors(g).iter().copied().filter(|&v| (v as usize).is_multiple_of(stride)).collect();
            prop_assert_eq!(row, expected, "local {}", li);
        }
    }

    #[test]
    fn components_partition_vertices(g in random_graph()) {
        let labels = algo::connected_components(&g);
        prop_assert_eq!(labels.len(), g.n());
        // Edge endpoints share a label.
        for (u, v) in g.edges() {
            prop_assert_eq!(labels[u as usize], labels[v as usize]);
        }
        // Labels are dense 0..k.
        let k = algo::num_components(&g);
        prop_assert!(labels.iter().all(|&l| (l as usize) < k));
    }

    #[test]
    fn bfs_distances_satisfy_triangle_on_edges(g in random_graph()) {
        if g.n() == 0 { return Ok(()); }
        let d = algo::bfs_distances(&g, 0);
        for (u, v) in g.edges() {
            let (du, dv) = (d[u as usize], d[v as usize]);
            if du != u32::MAX && dv != u32::MAX {
                prop_assert!(du.abs_diff(dv) <= 1, "edge ({u},{v}): {du} vs {dv}");
            } else {
                // Both ends of an edge are in the same component.
                prop_assert_eq!(du, dv);
            }
        }
    }

    #[test]
    fn shortest_paths_are_consistent_with_bfs(g in random_graph()) {
        if g.n() < 2 { return Ok(()); }
        let d = algo::bfs_distances(&g, 0);
        for t in 1..g.n() as NodeId {
            match algo::shortest_path(&g, 0, t) {
                Ok(path) => {
                    prop_assert_eq!((path.len() - 1) as u32, d[t as usize]);
                    for w in path.windows(2) {
                        prop_assert!(g.has_edge(w[0], w[1]));
                    }
                }
                Err(_) => prop_assert_eq!(d[t as usize], u32::MAX),
            }
        }
    }

    #[test]
    fn bitmap_agrees_with_graph(g in random_graph()) {
        let bm = NeighborBitmap::build(&g);
        for v in 0..g.n() as NodeId {
            prop_assert_eq!(bm.degree(v), g.degree(v));
            for &u in g.neighbors(v) {
                prop_assert!(bm.contains(v, u));
            }
        }
    }

    #[test]
    fn induced_subgraph_preserves_edges(g in random_graph(), mask_seed in any::<u64>()) {
        let n = g.n();
        let keep: Vec<bool> = (0..n)
            .map(|i| (mask_seed >> (i % 64)) & 1 == 1)
            .collect();
        let (sub, old_of) = g.induced(&keep);
        prop_assert_eq!(sub.n(), keep.iter().filter(|&&b| b).count());
        // Every subgraph edge maps back to an original edge.
        for (a, b) in sub.edges() {
            prop_assert!(g.has_edge(old_of[a as usize], old_of[b as usize]));
        }
        // Edge count matches a direct count.
        let expected = g
            .edges()
            .filter(|&(u, v)| keep[u as usize] && keep[v as usize])
            .count();
        prop_assert_eq!(sub.m(), expected);
    }

    #[test]
    fn edge_list_round_trips(g in random_graph()) {
        let s = pacds_graph::io::to_edge_list(&g);
        let h = pacds_graph::io::from_edge_list(&s).unwrap();
        prop_assert_eq!(g, h);
    }

    #[test]
    fn from_edges_ignores_order_orientation_and_duplicates(g in random_graph()) {
        let mut edges: Vec<_> = g.edges().collect();
        edges.reverse();
        let flipped: Vec<_> = edges.iter().map(|&(u, v)| (v, u)).collect();
        edges.extend(flipped);
        let h = Graph::from_edges(g.n(), &edges);
        prop_assert_eq!(h.m(), g.m());
        prop_assert_eq!(h, g);
    }
}
