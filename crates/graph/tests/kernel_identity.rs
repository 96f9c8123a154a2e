//! End-to-end identity of the bit-parallel kernels through the
//! [`NeighborBitmap`] predicates.
//!
//! The kernel module's own unit suite checks each scan against its scalar
//! reference on raw words; this test closes the loop one level up — the
//! bitmap predicates (which the rule passes call) against the naive
//! sorted-row predicates on `Graph` — at vertex counts chosen to land
//! the row width on every adversarial boundary: empty, one-under /
//! exactly / one-over a `u64` word, and the same around a full 4-lane
//! chunk (256 bits).

use pacds_graph::{gen, Graph, NeighborBitmap, NodeId};
use rand::SeedableRng;

/// Row widths (in bits = vertices) that straddle word and chunk edges.
const SIZES: &[usize] = &[0, 1, 63, 64, 65, 255, 256, 257];

#[test]
fn bitmap_predicates_match_naive_at_boundary_widths() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(4242);
    for &n in SIZES {
        // Dense enough that coverage relations genuinely occur.
        let g = gen::gnp(&mut rng, n, 0.3);
        let bm = NeighborBitmap::build(&g);
        for v in 0..n as NodeId {
            // Probe a window of partners around v plus the boundary ids;
            // the full triple product at n=257 would be ~17M checks.
            let partners: Vec<NodeId> = (0..n as NodeId)
                .filter(|&u| u.abs_diff(v) <= 4 || (u as usize).abs_diff(63) <= 1)
                .collect();
            for &u in &partners {
                assert_eq!(
                    bm.closed_subset(v, u),
                    g.closed_covered_by(v, u),
                    "closed n={n} v={v} u={u}"
                );
                for &w in &partners {
                    assert_eq!(
                        bm.open_subset_pair(v, u, w),
                        g.open_covered_by_pair(v, u, w),
                        "open n={n} v={v} u={u} w={w}"
                    );
                }
            }
        }
    }
}

#[test]
fn support_predicates_agree_with_full_row_scans() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(77);
    let mut support = Vec::new();
    for &n in SIZES {
        let g = gen::gnp(&mut rng, n, 0.25);
        let bm = NeighborBitmap::build(&g);
        for v in 0..n as NodeId {
            bm.row_support_into(v, &mut support);
            for u in 0..n as NodeId {
                // The witness is the lowest residual vertex of N(v) \ N(u);
                // recompute it naively from adjacency.
                let naive = g
                    .neighbors(v)
                    .iter()
                    .copied()
                    .filter(|&x| !g.has_edge(u, x))
                    .min();
                assert_eq!(
                    bm.first_residual_bit(&support, u),
                    naive,
                    "residual n={n} v={v} u={u}"
                );
                for w in (0..n as NodeId).step_by(7) {
                    assert_eq!(
                        bm.open_subset_pair_with(&support, u, w),
                        bm.open_subset_pair(v, u, w),
                        "support-vs-row n={n} v={v} u={u} w={w}"
                    );
                }
            }
        }
    }
}

#[test]
fn closed_subset_exception_bits_hold_on_cliques() {
    // In a clique, N[v] = N[u] = V for all v, u — every closed_subset is
    // true, and the u/v self-bits are the *only* residual words, so this
    // pins the kernel's exception path at each boundary width.
    for &n in &[2usize, 63, 64, 65, 256, 257] {
        let g = gen::complete(n);
        let bm = NeighborBitmap::build(&g);
        let probes = [0, 1, n / 2, n - 2, n - 1];
        for &v in &probes {
            for &u in &probes {
                assert!(
                    bm.closed_subset(v as NodeId, u as NodeId),
                    "clique n={n} v={v} u={u}"
                );
            }
        }
    }
    // And the near-clique: remove one edge and the coverage must break
    // exactly for the affected pairs.
    let edges: Vec<_> = gen::complete(257)
        .edges()
        .filter(|&e| e != (0, 256))
        .collect();
    let g = Graph::from_edges(257, &edges);
    let bm = NeighborBitmap::build(&g);
    // N[1] contains 0 and 256; N[0] no longer contains 256.
    assert!(!bm.closed_subset(1, 0), "missing 256 must be excess");
    assert!(!bm.closed_subset(1, 256), "missing 0 must be excess");
    assert!(bm.closed_subset(0, 1));
    assert!(bm.closed_subset(256, 1));
}
