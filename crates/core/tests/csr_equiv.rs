//! CSR / workspace equivalence properties.
//!
//! The zero-allocation hot path recomputes the CDS through
//! [`CdsWorkspace`] over a [`CsrGraph`], while the reference pipeline is
//! [`compute_cds`] over an adjacency-list [`Graph`]. These tests pin the
//! load-bearing refactor invariant: every rule pass and the full pipeline
//! are **bit-identical** across both graph backends and both entry points,
//! for every policy, both Rule 2 semantics, both application orders, and
//! both schedules.

use pacds_core::{
    compute_cds, marking, rule1_pass, rule2_pass, Application, CdsConfig, CdsInput, CdsWorkspace,
    Policy, PriorityKey, PruneSchedule, Rule2Semantics,
};
use pacds_graph::{gen, Graph, NeighborBitmap};
use proptest::prelude::*;
use rand::SeedableRng;

/// A random connected GNP graph plus a deterministic energy assignment.
fn connected_graph_with_energy() -> impl Strategy<Value = (Graph, Vec<u64>)> {
    (2usize..48, 0.02f64..0.6, any::<u64>()).prop_map(|(n, p, seed)| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let g = gen::connected_gnp(&mut rng, n, p, 8);
        let energy: Vec<u64> = (0..n)
            .map(|i| (seed.wrapping_mul(i as u64 + 1) >> 17) % 10)
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

/// Every (policy, semantics, application, schedule) combination.
fn all_configs() -> Vec<CdsConfig> {
    let mut cfgs = Vec::new();
    for policy in Policy::ALL {
        for rule2 in [Rule2Semantics::MinOfThree, Rule2Semantics::CaseAnalysis] {
            for application in [Application::Simultaneous, Application::Sequential] {
                for schedule in [PruneSchedule::SinglePass, PruneSchedule::Fixpoint] {
                    cfgs.push(CdsConfig {
                        policy,
                        schedule,
                        rule2,
                        application,
                    });
                }
            }
        }
    }
    cfgs
}

/// Workspace-over-CSR and workspace-over-Graph both match the allocating
/// Graph-based pipeline, bit for bit, on every configuration. One
/// workspace is reused across all configurations to also exercise buffer
/// reuse between differently-shaped computations.
fn assert_pipeline_equivalence(g: &Graph, energy: &[u64]) {
    let csr = pacds_graph::CsrGraph::from(g);
    let mut ws = CdsWorkspace::new();
    for cfg in all_configs() {
        let reference = compute_cds(
            &CdsInput {
                graph: g,
                energy: Some(energy),
            },
            &cfg,
        );
        let via_csr = ws.compute(&csr, Some(energy), &cfg).clone();
        assert_eq!(
            reference, via_csr,
            "workspace-over-CSR diverged from compute_cds under {cfg:?} on {g:?}"
        );
        let via_graph = ws.compute(g, Some(energy), &cfg);
        assert_eq!(
            &reference, via_graph,
            "workspace-over-Graph diverged from compute_cds under {cfg:?} on {g:?}"
        );
    }
}

/// Marking and the individual simultaneous rule passes agree across the
/// two `Neighbors` backends for every policy and both Rule 2 semantics.
fn assert_pass_equivalence(g: &Graph, energy: &[u64]) {
    let csr = pacds_graph::CsrGraph::from(g);
    let marked_g = marking(g);
    let marked_c = marking(&csr);
    assert_eq!(
        marked_g, marked_c,
        "marking diverged across backends on {g:?}"
    );

    let bm_g = NeighborBitmap::build(g);
    let bm_c = NeighborBitmap::build(&csr);
    for policy in Policy::ALL {
        if !policy.prunes() {
            continue;
        }
        let key_g = PriorityKey::build(policy, g, Some(energy));
        let key_c = PriorityKey::build(policy, &csr, Some(energy));
        let after1_g = rule1_pass(g, &bm_g, &marked_g, &key_g, None);
        let after1_c = rule1_pass(&csr, &bm_c, &marked_c, &key_c, None);
        assert_eq!(
            after1_g, after1_c,
            "rule 1 diverged across backends under {policy:?} on {g:?}"
        );
        for semantics in [Rule2Semantics::MinOfThree, Rule2Semantics::CaseAnalysis] {
            let after2_g = rule2_pass(g, &bm_g, &after1_g, &key_g, semantics, None);
            let after2_c = rule2_pass(&csr, &bm_c, &after1_c, &key_c, semantics, None);
            assert_eq!(
                after2_g, after2_c,
                "rule 2 ({semantics:?}) diverged across backends under {policy:?} on {g:?}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(120))]

    #[test]
    fn pipeline_bit_identical_on_gnp((g, energy) in connected_graph_with_energy()) {
        assert_pipeline_equivalence(&g, &energy);
    }

    #[test]
    fn pipeline_bit_identical_on_unit_disk((g, energy) in unit_disk_component()) {
        assert_pipeline_equivalence(&g, &energy);
    }

    #[test]
    fn rule_passes_bit_identical_on_gnp((g, energy) in connected_graph_with_energy()) {
        assert_pass_equivalence(&g, &energy);
    }

    #[test]
    fn rule_passes_bit_identical_on_unit_disk((g, energy) in unit_disk_component()) {
        assert_pass_equivalence(&g, &energy);
    }
}
