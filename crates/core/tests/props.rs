//! Property-based tests for the paper's claimed invariants.
//!
//! These are the load-bearing guarantees: on every connected graph, the
//! marking process yields a CDS (Properties 1–2), Property 3 holds for the
//! raw marking, and *every* rule family preserves the CDS property while
//! only ever shrinking the set.

use pacds_core::{compute_cds, compute_cds_trace, verify_cds, CdsConfig, CdsInput, Policy};
use pacds_graph::{gen, Graph};
use proptest::prelude::*;
use rand::SeedableRng;

/// A random connected graph plus a deterministic energy assignment.
fn connected_graph_with_energy() -> impl Strategy<Value = (Graph, Vec<u64>)> {
    (2usize..48, 0.02f64..0.6, any::<u64>()).prop_map(|(n, p, seed)| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let g = gen::connected_gnp(&mut rng, n, p, 8);
        let energy: Vec<u64> = (0..n)
            .map(|i| {
                // Deterministic but varied, with deliberate ties.
                (seed.wrapping_mul(i as u64 + 1) >> 17) % 10
            })
            .collect();
        (g, energy)
    })
}

/// A random unit-disk graph in the paper's arena (largest component kept).
fn unit_disk_component() -> impl Strategy<Value = (Graph, Vec<u64>)> {
    (3usize..60, any::<u64>()).prop_map(|(n, seed)| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let bounds = pacds_geom::Rect::paper_arena();
        let pts = pacds_geom::placement::uniform_points(&mut rng, bounds, n);
        let g = gen::unit_disk(bounds, 25.0, &pts);
        let keep = pacds_graph::algo::largest_component(&g);
        let (sub, _) = g.induced(&keep);
        let energy: Vec<u64> = (0..sub.n())
            .map(|i| (seed.wrapping_mul(i as u64 + 3) >> 13) % 8)
            .collect();
        (sub, energy)
    })
}

fn count(mask: &[bool]) -> usize {
    mask.iter().filter(|&&b| b).count()
}

/// Properties 1–2 for every policy: the result is a CDS.
fn every_policy_is_a_cds(g: &Graph, energy: &[u64]) {
    for policy in Policy::ALL {
        let cds = compute_cds(
            &CdsInput {
                graph: g,
                energy: Some(energy),
            },
            &CdsConfig::policy(policy),
        );
        assert!(
            verify_cds(g, &cds).is_ok(),
            "policy {policy:?} violated CDS on {g:?}"
        );
    }
}

fn pruning_is_monotone(g: &Graph, energy: &[u64]) {
    let input = CdsInput {
        graph: g,
        energy: Some(energy),
    };
    let trace_nr = compute_cds(&input, &CdsConfig::policy(Policy::NoPruning));
    for policy in [
        Policy::Id,
        Policy::Degree,
        Policy::Energy,
        Policy::EnergyDegree,
    ] {
        let trace = compute_cds_trace(&input, &CdsConfig::policy(policy));
        // Stage-wise: marked ⊇ after_rule1 ⊇ after_rule2.
        for (v, &nr) in trace_nr.iter().enumerate() {
            assert!(!trace.after_rule1[v] || trace.marked[v]);
            assert!(!trace.after_rule2[v] || trace.after_rule1[v]);
            assert!(!trace.after_rule2[v] || nr);
        }
    }
}

fn fixpoint_stays_a_cds_and_never_grows(g: &Graph, energy: &[u64]) {
    let input = CdsInput {
        graph: g,
        energy: Some(energy),
    };
    for policy in [
        Policy::Id,
        Policy::Degree,
        Policy::Energy,
        Policy::EnergyDegree,
    ] {
        let single = compute_cds(&input, &CdsConfig::policy(policy));
        let fix = compute_cds(&input, &CdsConfig::fixpoint(policy));
        assert!(verify_cds(g, &fix).is_ok(), "fixpoint {policy:?}");
        assert!(count(&fix) <= count(&single));
    }
}

fn paper_literal_is_monotone(g: &Graph, energy: &[u64]) {
    // The literal case-analysis Rule 2 may (rarely) lose domination —
    // that is a documented property of the paper's rule, not of this
    // implementation. What must always hold: the result is a subset of
    // the marking, and verify_cds either passes or reports a
    // NotDominating/NotConnected violation (never panics).
    let input = CdsInput {
        graph: g,
        energy: Some(energy),
    };
    for policy in [Policy::Degree, Policy::Energy, Policy::EnergyDegree] {
        let trace = compute_cds_trace(&input, &CdsConfig::paper(policy));
        for v in 0..g.n() {
            assert!(!trace.after_rule2[v] || trace.marked[v]);
        }
        let _ = verify_cds(g, &trace.after_rule2);
    }
}

/// The in-place sweep is sound for every policy in `policies` and both
/// Rule 2 semantics: each single removal preserves the CDS invariant.
fn sequential_sweep_is_a_cds(g: &Graph, energy: &[u64], policies: &[Policy]) {
    let input = CdsInput {
        graph: g,
        energy: Some(energy),
    };
    for &policy in policies {
        let cds = compute_cds(&input, &CdsConfig::sequential(policy));
        assert!(verify_cds(g, &cds).is_ok(), "sequential {policy:?}");
    }
}

fn rule_k_is_a_cds(g: &Graph, energy: &[u64], policies: &[Policy]) {
    for &policy in policies {
        let cds = pacds_core::compute_cds_daiwu(g, Some(energy), policy);
        assert!(verify_cds(g, &cds).is_ok(), "rule-k {policy:?}");
    }
}

/// Degenerate energy tables (all equal, extremes) must still verify.
fn degenerate_energy_is_safe(g: &Graph) {
    let n = g.n();
    for energy in [vec![0u64; n], vec![u64::MAX; n]] {
        for policy in [Policy::Energy, Policy::EnergyDegree] {
            let cds = compute_cds(
                &CdsInput {
                    graph: g,
                    energy: Some(&energy),
                },
                &CdsConfig::policy(policy),
            );
            assert!(verify_cds(g, &cds).is_ok());
        }
    }
}

const NON_NR: [Policy; 4] = [
    Policy::Id,
    Policy::Degree,
    Policy::Energy,
    Policy::EnergyDegree,
];

/// Every property checked over [`connected_graph_with_energy`].
fn gnp_properties(g: &Graph, energy: &[u64]) {
    every_policy_is_a_cds(g, energy);
    pruning_is_monotone(g, energy);
    fixpoint_stays_a_cds_and_never_grows(g, energy);
    paper_literal_is_monotone(g, energy);
    sequential_sweep_is_a_cds(g, energy, &NON_NR);
    rule_k_is_a_cds(g, energy, &NON_NR);
    degenerate_energy_is_safe(g);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn every_policy_yields_a_cds_on_gnp((g, energy) in connected_graph_with_energy()) {
        every_policy_is_a_cds(&g, &energy);
    }

    #[test]
    fn every_policy_yields_a_cds_on_unit_disk((g, energy) in unit_disk_component()) {
        every_policy_is_a_cds(&g, &energy);
    }

    #[test]
    fn pruning_is_monotone_shrinking((g, energy) in connected_graph_with_energy()) {
        pruning_is_monotone(&g, &energy);
    }

    #[test]
    fn fixpoint_schedule_stays_a_cds_and_never_grows((g, energy) in connected_graph_with_energy()) {
        fixpoint_stays_a_cds_and_never_grows(&g, &energy);
    }

    #[test]
    fn marking_preserves_shortest_paths((g, _energy) in unit_disk_component()) {
        // Property 3 applies to the bare marking output.
        if g.n() <= 30 {
            let m = pacds_core::marking(&g);
            if !g.is_complete() {
                prop_assert!(pacds_core::verify::preserves_shortest_paths(&g, &m));
            }
        }
    }

    #[test]
    fn paper_literal_mode_is_monotone_and_dominating_or_flagged((g, energy) in connected_graph_with_energy()) {
        paper_literal_is_monotone(&g, &energy);
    }

    #[test]
    fn sequential_sweep_always_yields_a_cds((g, energy) in connected_graph_with_energy()) {
        sequential_sweep_is_a_cds(&g, &energy, &NON_NR);
    }

    #[test]
    fn sequential_sweep_yields_a_cds_on_unit_disk((g, energy) in unit_disk_component()) {
        let policies = [Policy::Degree, Policy::Energy, Policy::EnergyDegree];
        sequential_sweep_is_a_cds(&g, &energy, &policies);
    }

    #[test]
    fn rule_k_always_yields_a_cds((g, energy) in connected_graph_with_energy()) {
        rule_k_is_a_cds(&g, &energy, &NON_NR);
    }

    #[test]
    fn rule_k_yields_a_cds_on_unit_disk((g, energy) in unit_disk_component()) {
        rule_k_is_a_cds(&g, &energy, &[Policy::Degree, Policy::EnergyDegree]);
    }

    #[test]
    fn energy_levels_only_permute_priorities_not_safety((g, _e) in connected_graph_with_energy()) {
        degenerate_energy_is_safe(&g);
    }
}

/// A graph from adjacency lists (each edge listed from both ends).
fn from_adjacency(adj: &[&[u32]]) -> Graph {
    let edges: Vec<(u32, u32)> = (0u32..)
        .zip(adj)
        .flat_map(|(u, row)| row.iter().filter(move |&&v| u < v).map(move |&v| (u, v)))
        .collect();
    let g = Graph::from_edges(adj.len(), &edges);
    for (u, row) in adj.iter().enumerate() {
        assert_eq!(
            g.degree(u as u32),
            row.len(),
            "row {u} lists each neighbour once"
        );
    }
    g
}

// Inputs proptest once found failing for the properties above (the graph
// and energy each failure shrank to), kept as named regression cases.

#[test]
fn saved_case_dense_14_hosts() {
    let g = from_adjacency(&[
        &[1, 2, 5, 9, 11, 13],
        &[0, 2, 3, 4, 6, 7, 8, 10, 11, 12, 13],
        &[0, 1, 3, 4, 6, 7, 8, 11, 13],
        &[1, 2, 4, 6, 10, 11],
        &[1, 2, 3, 7, 9, 12, 13],
        &[0, 6, 8, 10, 12, 13],
        &[1, 2, 3, 5, 9, 10, 11, 12],
        &[1, 2, 4, 8, 10, 11, 12, 13],
        &[1, 2, 5, 7, 9, 12],
        &[0, 4, 6, 8, 10, 11, 12, 13],
        &[1, 3, 5, 6, 7, 9, 11, 12, 13],
        &[0, 1, 2, 3, 6, 7, 9, 10],
        &[1, 4, 5, 6, 7, 8, 9, 10, 13],
        &[0, 1, 2, 4, 5, 7, 9, 10, 12],
    ]);
    gnp_properties(&g, &[1, 3, 4, 6, 7, 9, 0, 2, 3, 5, 7, 8, 0, 3]);
}

#[test]
fn saved_case_7_hosts() {
    let g = from_adjacency(&[
        &[3, 5, 6],
        &[2, 3, 4, 5, 6],
        &[1, 6],
        &[0, 1, 4],
        &[1, 3, 5, 6],
        &[0, 1, 4, 6],
        &[0, 1, 2, 4, 5],
    ]);
    gnp_properties(&g, &[5, 1, 8, 4, 9, 7, 2]);
}

#[test]
fn saved_case_sparse_14_hosts() {
    let g = from_adjacency(&[
        &[3, 8, 9],
        &[4, 5, 7, 11],
        &[6],
        &[0, 8, 9, 10],
        &[1, 7, 13],
        &[1, 6, 7, 10, 11, 12],
        &[2, 5, 11, 12],
        &[1, 4, 5, 11, 13],
        &[0, 3, 9, 13],
        &[0, 3, 8, 10],
        &[3, 5, 9, 12],
        &[1, 5, 6, 7, 12],
        &[5, 6, 10, 11],
        &[4, 7, 8],
    ]);
    gnp_properties(&g, &[4, 5, 7, 0, 2, 3, 5, 6, 0, 1, 3, 4, 6, 7]);
}
