//! Standalone rule passes against the workspace.
//!
//! The zero-allocation hot path recomputes the CDS through
//! [`CdsWorkspace`]; marking and the standalone simultaneous rule passes
//! are also public. These tests pin the single-pass round of the one to
//! the other, bit for bit, for every pruning policy and both Rule 2
//! semantics. The whole workspace against an independent reference lives
//! in `crates/testkit/tests/workspace_oracle.rs`: the allocating
//! [`pacds_core::compute_cds`] runs through a fresh workspace, so it is no
//! reference.

use pacds_core::{
    marking, rule1_pass, rule2_pass, Application, CdsConfig, CdsWorkspace, Policy, PriorityKey,
    PruneSchedule, Rule2Semantics,
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

/// Marking and the standalone simultaneous rule passes agree with the
/// workspace's single-pass round for every pruning policy and both Rule 2
/// semantics.
fn assert_pass_equivalence(g: &Graph, energy: &[u64]) {
    let marked = marking(g);
    let bm = NeighborBitmap::build(g);
    let mut ws = CdsWorkspace::new();
    for policy in Policy::ALL {
        if !policy.prunes() {
            continue;
        }
        let key = PriorityKey::build(policy, g, Some(energy));
        let after1 = rule1_pass(g, &bm, &marked, &key, None);
        for rule2 in [Rule2Semantics::MinOfThree, Rule2Semantics::CaseAnalysis] {
            let cfg = CdsConfig {
                policy,
                schedule: PruneSchedule::SinglePass,
                rule2,
                application: Application::Simultaneous,
            };
            let gateways = ws.compute(g, Some(energy), &cfg).clone();
            assert_eq!(&marked, ws.marked(), "marking diverged on {g:?}");
            assert_eq!(
                &after1,
                ws.after_rule1(),
                "rule 1 diverged under {policy:?} on {g:?}"
            );
            // The Id policy's Rule 2 is min-of-three under either setting.
            let after2 = rule2_pass(g, &bm, &after1, &key, cfg.rule2_semantics(), None);
            assert_eq!(
                after2, gateways,
                "rule 2 ({rule2:?}) diverged under {policy:?} on {g:?}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(120))]

    #[test]
    fn rule_passes_bit_identical_on_gnp((g, energy) in connected_graph_with_energy()) {
        assert_pass_equivalence(&g, &energy);
    }

    #[test]
    fn rule_passes_bit_identical_on_unit_disk((g, energy) in unit_disk_component()) {
        assert_pass_equivalence(&g, &energy);
    }
}
