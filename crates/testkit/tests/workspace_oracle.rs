//! The retained [`CdsWorkspace`] against the independent oracle.
//!
//! The allocating pipeline ([`pacds_core::compute_cds`]) runs through a
//! fresh workspace internally, so comparing the two only checks buffer
//! reuse. The reference here is [`oracle::compute_cds_oracle`] and its
//! stages, which share no code with the production rule passes: every
//! policy, both Rule 2 semantics, both application orders and both
//! schedules, on G(n, p) and unit-disk graphs, one workspace reused
//! across all of them.

use pacds_core::{CdsWorkspace, PruneSchedule};
use pacds_graph::{algo, gen, Graph, NodeId};
use pacds_testkit::harness::full_config_matrix;
use pacds_testkit::oracle;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Checks one graph under every configuration: the final mask against
/// the oracle pipeline, marking against the marking oracle, and for the
/// single-pass schedule the after-Rule-1 mask, both removal lists and the
/// round count against one oracle round.
fn check(ws: &mut CdsWorkspace, g: &Graph, energy: &[u64], label: &str) {
    let marked = oracle::marking_oracle(g);
    for cfg in full_config_matrix() {
        let ctx = format!("{label} cfg={cfg:?}");
        let got = ws.compute(g, Some(energy), &cfg).clone();
        assert_eq!(
            got,
            oracle::compute_cds_oracle(g, Some(energy), &cfg),
            "{ctx}"
        );
        assert_eq!(ws.marked(), &marked, "marking diverged: {ctx}");
        if cfg.schedule != PruneSchedule::SinglePass {
            continue;
        }
        if !cfg.policy.prunes() {
            assert_eq!(ws.after_rule1(), &marked, "{ctx}");
            assert_eq!(ws.rounds(), 0, "{ctx}");
            continue;
        }
        let after1 = oracle::rule1_oracle(g, &marked, cfg.policy, Some(energy), cfg.application);
        assert_eq!(ws.after_rule1(), &after1, "after-Rule-1 diverged: {ctx}");
        let dropped = |from: &[bool], to: &[bool]| -> Vec<NodeId> {
            g.vertices()
                .filter(|&v| from[v as usize] && !to[v as usize])
                .collect()
        };
        assert_eq!(ws.removed_by_rule1(), dropped(&marked, &after1), "{ctx}");
        assert_eq!(ws.removed_by_rule2(), dropped(&after1, &got), "{ctx}");
        assert_eq!(ws.rounds(), 1, "{ctx}");
    }
}

#[test]
fn workspace_matches_the_oracle_on_gnp_graphs() {
    let mut rng = StdRng::seed_from_u64(77);
    let mut ws = CdsWorkspace::new();
    for n in [0usize, 1, 2, 12, 45, 90] {
        let g = gen::gnp(&mut rng, n, 0.18);
        let energy: Vec<u64> = (0..n as u64).map(|v| (v * 7 + 3) % 50).collect();
        check(&mut ws, &g, &energy, &format!("gnp n={n}"));
    }
    for case in 0..60 {
        let n = rng.random_range(2..48usize);
        let p = rng.random_range(0.02..0.6);
        let g = gen::connected_gnp(&mut rng, n, p, 8);
        let energy: Vec<u64> = (0..n).map(|_| rng.random_range(0..10)).collect();
        check(&mut ws, &g, &energy, &format!("connected gnp case {case}"));
    }
}

#[test]
fn workspace_matches_the_oracle_on_unit_disk_components() {
    let mut rng = StdRng::seed_from_u64(0x0d15c);
    let mut ws = CdsWorkspace::new();
    let bounds = pacds_geom::Rect::paper_arena();
    for case in 0..60 {
        let n = rng.random_range(3..60usize);
        let pts = pacds_geom::placement::uniform_points(&mut rng, bounds, n);
        let g = gen::unit_disk(bounds, 25.0, &pts);
        let (sub, _) = g.induced(&algo::largest_component(&g));
        let energy: Vec<u64> = (0..sub.n()).map(|_| rng.random_range(0..8)).collect();
        check(&mut ws, &sub, &energy, &format!("unit-disk case {case}"));
    }
}
