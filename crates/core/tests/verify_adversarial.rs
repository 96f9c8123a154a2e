//! Adversarial tests for the verifier itself: known-bad vertex sets must
//! be rejected with the right violation, so that a broken verifier cannot
//! silently bless a broken algorithm.

use pacds_core::{verify_cds, verify_cds_scratch, CdsViolation};
use pacds_graph::{gen, vec_to_mask, Graph};
use std::collections::VecDeque;

#[test]
fn leaves_of_a_star_dominate_but_do_not_connect() {
    let g = gen::star(5); // hub 0, leaves 1..=4
    let mask = vec_to_mask(5, &[1, 2, 3, 4]);
    assert_eq!(verify_cds(&g, &mask), Err(CdsViolation::NotConnected));
}

#[test]
fn dropping_a_pendant_dominator_names_the_witness() {
    // Path 0-1-2-3-4: {1,2,3} is the unique minimum CDS. Removing 3
    // leaves vertex 4 undominated, and 4 must be the reported witness.
    let g = gen::path(5);
    let mask = vec_to_mask(5, &[1, 2]);
    assert_eq!(
        verify_cds(&g, &mask),
        Err(CdsViolation::NotDominating { witness: 4 })
    );
}

#[test]
fn witness_is_the_first_undominated_vertex() {
    let g = gen::path(7);
    // {4, 5} leaves 0, 1, 2 undominated; 0 comes first.
    let mask = vec_to_mask(7, &[4, 5]);
    assert_eq!(
        verify_cds(&g, &mask),
        Err(CdsViolation::NotDominating { witness: 0 })
    );
}

#[test]
fn empty_set_is_rejected_exactly_when_the_graph_is_incomplete() {
    assert_eq!(
        verify_cds(&gen::path(3), &[false; 3]),
        Err(CdsViolation::Empty)
    );
    assert_eq!(verify_cds(&gen::complete(4), &[false; 4]), Ok(()));
    assert_eq!(verify_cds(&Graph::new(1), &[false; 1]), Ok(()));
    assert_eq!(verify_cds(&Graph::new(0), &Vec::new()), Ok(()));
    // Two isolated vertices: empty set rejected (not complete), and no
    // non-empty set helps either.
    let iso = Graph::new(2);
    assert_eq!(verify_cds(&iso, &[false; 2]), Err(CdsViolation::Empty));
    assert!(verify_cds(&iso, &[true, false]).is_err());
}

#[test]
fn bridged_cliques_without_the_bridge_are_disconnected() {
    // Two K_4s joined by the edge 0-4. Picking one dominator inside each
    // clique dominates everything but induces two components.
    let mut edges = vec![(0, 4)];
    for base in [0u32, 4] {
        for i in base..base + 4 {
            for j in i + 1..base + 4 {
                edges.push((i, j));
            }
        }
    }
    let g = Graph::from_edges(8, &edges);
    let mask = vec_to_mask(8, &[1, 5]);
    assert_eq!(verify_cds(&g, &mask), Err(CdsViolation::NotConnected));
    // The bridge endpoints themselves form a valid CDS.
    assert_eq!(verify_cds(&g, &vec_to_mask(8, &[0, 4])), Ok(()));
}

#[test]
fn set_member_in_a_foreign_component_breaks_connectivity() {
    // Disconnected graph: path 0-1-2 plus isolated triangle 3-4-5. A mask
    // spanning both components can never induce a connected subgraph.
    let g = Graph::from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5), (3, 5)]);
    let mask = vec_to_mask(6, &[1, 4]);
    assert_eq!(verify_cds(&g, &mask), Err(CdsViolation::NotConnected));
}

#[test]
fn scratch_variant_is_immune_to_dirty_buffers() {
    let g = gen::path(5);
    let good = vec_to_mask(5, &[1, 2, 3]);
    let bad = vec_to_mask(5, &[1, 3]);
    let mut seen = vec![true; 64]; // poisoned: stale `true` flags
    let mut queue: VecDeque<u32> = (0..50).collect(); // stale entries
    assert_eq!(verify_cds_scratch(&g, &good, &mut seen, &mut queue), Ok(()));
    // Reuse the now-warm buffers for a failing case and back again.
    assert!(verify_cds_scratch(&g, &bad, &mut seen, &mut queue).is_err());
    assert_eq!(verify_cds_scratch(&g, &good, &mut seen, &mut queue), Ok(()));
}

#[test]
fn full_vertex_set_is_valid_exactly_when_the_graph_is_connected() {
    assert_eq!(verify_cds(&gen::path(6), &[true; 6]), Ok(()));
    let disconnected = Graph::from_edges(4, &[(0, 1), (2, 3)]);
    assert_eq!(
        verify_cds(&disconnected, &[true; 4]),
        Err(CdsViolation::NotConnected)
    );
}

#[test]
fn single_vertex_dominator_must_reach_everything() {
    let g = gen::star(6);
    assert_eq!(verify_cds(&g, &vec_to_mask(6, &[0])), Ok(()));
    assert_eq!(
        verify_cds(&g, &vec_to_mask(6, &[1])),
        Err(CdsViolation::NotDominating { witness: 2 })
    );
}
