//! Property-based tests for the graph substrate.

use pacds_geom::{placement, Point2, Rect};
use pacds_graph::{algo, gen, Graph, NeighborBitmap, NodeId};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

/// Builds the unit-disk graph induced by `subset` and checks its contract
/// against `whole`, the unit-disk graph of all of `points`: `subset` comes
/// back as a permutation of its input, every row is strictly ascending,
/// and each row, mapped back through the permuted `subset`, is exactly
/// the set of `whole`'s neighbours that lie in the subset.
fn assert_subset_build(radius: f64, points: &[Point2], whole: &Graph, subset: &[u32]) {
    let mut relabelled = subset.to_vec();
    let mut sub = Graph::default();
    gen::unit_disk_csr_subset(
        radius,
        points,
        &mut relabelled,
        &mut sub,
        &mut gen::UnitDiskScratch::new(),
    );
    assert_eq!(sub.n(), subset.len());
    let (mut before, mut after) = (subset.to_vec(), relabelled.clone());
    before.sort_unstable();
    after.sort_unstable();
    assert_eq!(
        after, before,
        "subset must come back as a permutation of its input"
    );
    for (li, &g) in relabelled.iter().enumerate() {
        let row = sub.neighbors(li as NodeId);
        assert!(
            row.windows(2).all(|w| w[0] < w[1]),
            "local {li}: row {row:?} not strictly ascending"
        );
        let mut got: Vec<u32> = row.iter().map(|&lj| relabelled[lj as usize]).collect();
        got.sort_unstable();
        let expected: Vec<u32> = whole
            .neighbors(g)
            .iter()
            .copied()
            .filter(|v| before.binary_search(v).is_ok())
            .collect();
        assert_eq!(got, expected, "local {} (point {})", li, g);
    }
}

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
        shuffle in any::<u64>(),
    ) {
        let whole = gen::unit_disk(bounds, radius, &pts);
        prop_assert_eq!(&whole, &gen::unit_disk_naive(radius, &pts));
        // The induced-subgraph build bins over the subset's own bounding
        // box; it must agree with the whole graph restricted to the subset,
        // whatever order the subset comes in.
        let mut subset: Vec<u32> = (0..pts.len() as u32).step_by(stride).collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(shuffle);
        for i in (1..subset.len()).rev() {
            subset.swap(i, rng.random_range(0..=i));
        }
        assert_subset_build(radius, &pts, &whole, &subset);
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

#[test]
fn subset_build_fixed_cases() {
    let r = 10.0;
    let check = |pts: &[Point2], subset: &[u32]| {
        let whole = gen::unit_disk_naive(r, pts);
        assert_subset_build(r, pts, &whole, subset);
    };
    let spread: Vec<Point2> = (0..6).map(|i| Point2::new(7.0 * i as f64, 3.0)).collect();
    // An empty subset and a single host: no rows, one empty row.
    check(&spread, &[]);
    check(&spread, &[4]);
    // Coincident hosts are all mutual neighbours.
    check(&[Point2::new(5.0, 5.0); 4], &[3, 0, 2, 1]);
    // A pair exactly `r` apart is an edge under the rim-inclusive test.
    let pair = [Point2::new(0.0, 0.0), Point2::new(r, 0.0)];
    check(&pair, &[1, 0]);
    let mut relabelled = vec![1, 0];
    let mut sub = Graph::default();
    gen::unit_disk_csr_subset(
        r,
        &pair,
        &mut relabelled,
        &mut sub,
        &mut gen::UnitDiskScratch::new(),
    );
    assert_eq!(sub.m(), 1, "a pair at exactly r is an edge");
    // Hosts on the cell borders of the subset's binning (multiples of `r`
    // from its corner), including the far corner that the binning clamps.
    let mut lattice = Vec::new();
    for y in 0..4 {
        for x in 0..4 {
            lattice.push(Point2::new(x as f64 * r, y as f64 * r));
            lattice.push(Point2::new(x as f64 * r + 0.5 * r, y as f64 * r));
        }
    }
    let all: Vec<u32> = (0..lattice.len() as u32).rev().collect();
    check(&lattice, &all);
    check(
        &lattice,
        &all.iter().copied().step_by(3).collect::<Vec<_>>(),
    );
}
