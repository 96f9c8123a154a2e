//! Owned-only rule passes against the whole-graph workspace.
//!
//! [`CdsWorkspace::compute_owned`] runs marking over the whole graph but
//! Rule 1 and Rule 2 on the owned vertices only, so Rule 2 at an owned
//! vertex reads a partner outside the owned set at its marking bit, not
//! its after-Rule-1 bit. For the simultaneous, single-pass, min-of-three
//! configurations that still decides every owned vertex exactly as
//! [`CdsWorkspace::compute`] does. These tests pin that over random
//! unit-disk and G(n, p) graphs crossed with random owned sets and every
//! such configuration.

use pacds_core::{Application, CdsConfig, CdsWorkspace, Policy, PruneSchedule, Rule2Semantics};
use pacds_graph::{gen, Graph, NodeId};
use rand::{Rng, SeedableRng};

/// The configurations `compute_owned` accepts: simultaneous, single-pass,
/// and min-of-three Rule 2 unless the policy runs no rule at all.
fn owned_configs() -> Vec<CdsConfig> {
    let mut cfgs = Vec::new();
    for policy in Policy::ALL {
        for rule2 in [Rule2Semantics::MinOfThree, Rule2Semantics::CaseAnalysis] {
            let cfg = CdsConfig {
                policy,
                schedule: PruneSchedule::SinglePass,
                rule2,
                application: Application::Simultaneous,
            };
            if !policy.prunes() || cfg.rule2_semantics() == Rule2Semantics::MinOfThree {
                cfgs.push(cfg);
            }
        }
    }
    cfgs
}

/// A random owned set: each vertex independently with probability `p`.
fn random_owned<R: Rng>(rng: &mut R, n: usize, p: f64) -> Vec<NodeId> {
    (0..n as NodeId).filter(|_| rng.random_bool(p)).collect()
}

/// Checks every owned set in `sets` on `g` under every accepted config.
fn check(g: &Graph, energy: &[u64], sets: &[Vec<NodeId>], label: &str) {
    let mut whole = CdsWorkspace::new();
    let mut part = CdsWorkspace::new();
    let ids: Vec<NodeId> = g.vertices().collect();
    for cfg in owned_configs() {
        whole.compute(g, Some(energy), &cfg);
        for owned in sets {
            part.compute_owned(g, &ids, owned, Some(energy), &cfg);
            assert_eq!(part.marked(), whole.marked(), "{label} {cfg:?}");
            for &v in owned {
                let i = v as usize;
                assert_eq!(
                    part.after_rule1()[i],
                    whole.after_rule1()[i],
                    "{label} {cfg:?} owned={owned:?}: after-Rule-1 bit of {v}"
                );
                assert_eq!(
                    part.gateways()[i],
                    whole.gateways()[i],
                    "{label} {cfg:?} owned={owned:?}: gateway bit of {v}"
                );
            }
            // Hosts outside the owned set are not decided: both rule
            // outputs keep their marking bit there.
            let mut is_owned = vec![false; g.n()];
            for &v in owned {
                is_owned[v as usize] = true;
            }
            for v in (0..g.n()).filter(|&v| !is_owned[v]) {
                assert_eq!(part.after_rule1()[v], part.marked()[v], "{label} {v}");
                assert_eq!(part.gateways()[v], part.marked()[v], "{label} {v}");
            }
            assert_eq!(part.rounds(), whole.rounds(), "{label} {cfg:?}");
        }
    }
}

/// Energy levels with plenty of ties, so the EL policies' tie-breaks act.
fn random_energy<R: Rng>(rng: &mut R, n: usize) -> Vec<u64> {
    (0..n).map(|_| rng.random_range(0..6u64)).collect()
}

fn random_sets<R: Rng>(rng: &mut R, n: usize) -> Vec<Vec<NodeId>> {
    [0.15, 0.4, 0.7]
        .iter()
        .map(|&p| random_owned(rng, n, p))
        .collect()
}

#[test]
fn owned_verdicts_match_the_whole_graph_on_unit_disk_graphs() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x0a11_0ced);
    let bounds = pacds_geom::Rect::paper_arena();
    for case in 0..300 {
        let n = rng.random_range(2..90usize);
        let radius = rng.random_range(15.0..40.0);
        let pts = pacds_geom::placement::uniform_points(&mut rng, bounds, n);
        let g = gen::unit_disk(bounds, radius, &pts);
        let energy = random_energy(&mut rng, n);
        let sets = random_sets(&mut rng, n);
        check(&g, &energy, &sets, &format!("unit-disk case {case} n={n}"));
    }
}

#[test]
fn owned_verdicts_match_the_whole_graph_on_gnp_graphs() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x6e70);
    for case in 0..300 {
        let n = rng.random_range(2..60usize);
        let p = rng.random_range(0.03..0.5);
        let g = gen::gnp(&mut rng, n, p);
        let energy = random_energy(&mut rng, n);
        let sets = random_sets(&mut rng, n);
        check(
            &g,
            &energy,
            &sets,
            &format!("gnp case {case} n={n} p={p:.2}"),
        );
    }
}

#[test]
fn owning_every_vertex_is_the_whole_graph_compute() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(41);
    let mut whole = CdsWorkspace::new();
    let mut part = CdsWorkspace::new();
    for _ in 0..40 {
        let n = rng.random_range(2..70usize);
        let g = gen::gnp(&mut rng, n, 0.15);
        let energy = random_energy(&mut rng, n);
        let all: Vec<NodeId> = g.vertices().collect();
        for cfg in owned_configs() {
            whole.compute(&g, Some(&energy), &cfg);
            part.compute_owned(&g, &all, &all, Some(&energy), &cfg);
            assert_eq!(part.after_rule1(), whole.after_rule1(), "{cfg:?}");
            assert_eq!(part.gateways(), whole.gateways(), "{cfg:?}");
            assert_eq!(part.removed_by_rule1(), whole.removed_by_rule1());
            assert_eq!(part.removed_by_rule2(), whole.removed_by_rule2());
        }
    }
}

/// `g` relabelled by `ids`: vertex `v` of `g` becomes `ids[v]`.
fn relabel(g: &Graph, ids: &[NodeId]) -> Graph {
    let edges: Vec<(NodeId, NodeId)> = g
        .edges()
        .map(|(u, v)| (ids[u as usize], ids[v as usize]))
        .collect();
    Graph::from_edges(g.n(), &edges)
}

/// A graph stored in one order and labelled by a permutation `ids`
/// decides every owned vertex `v` as the whole-graph compute decides
/// `ids[v]` on the relabelled graph: the priority key breaks ties on the
/// caller's ids, never on the storage order. Equal energies and the
/// regular lattice make most keys tie before the id.
#[test]
fn permuted_ids_decide_as_the_relabelled_graph() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x1d5);
    let mut whole = CdsWorkspace::new();
    let mut part = CdsWorkspace::new();
    for case in 0..200 {
        let n = rng.random_range(2..80usize);
        let g = match case % 3 {
            0 => gen::grid(n / 8 + 1, rng.random_range(2..8usize)),
            1 => gen::gnp(&mut rng, n, 0.12),
            _ => {
                let bounds = pacds_geom::Rect::paper_arena();
                let pts = pacds_geom::placement::uniform_points(&mut rng, bounds, n);
                gen::unit_disk(bounds, 25.0, &pts)
            }
        };
        let n = g.n();
        let mut ids: Vec<NodeId> = g.vertices().collect();
        for i in (1..n).rev() {
            ids.swap(i, rng.random_range(0..=i));
        }
        let energy: Vec<u64> = match case % 2 {
            0 => vec![3; n],
            _ => random_energy(&mut rng, n),
        };
        let relabelled = relabel(&g, &ids);
        let mut energy_ext = vec![0; n];
        for (v, &id) in ids.iter().enumerate() {
            energy_ext[id as usize] = energy[v];
        }
        for owned in random_sets(&mut rng, n) {
            for cfg in owned_configs() {
                whole.compute(&relabelled, Some(&energy_ext), &cfg);
                part.compute_owned(&g, &ids, &owned, Some(&energy), &cfg);
                for &v in &owned {
                    let (i, e) = (v as usize, ids[v as usize] as usize);
                    assert_eq!(part.marked()[i], whole.marked()[e], "case {case} {cfg:?}");
                    assert_eq!(
                        part.after_rule1()[i],
                        whole.after_rule1()[e],
                        "case {case} {cfg:?}: after-Rule-1 bit of {v} (id {e})"
                    );
                    assert_eq!(
                        part.gateways()[i],
                        whole.gateways()[e],
                        "case {case} {cfg:?}: gateway bit of {v} (id {e})"
                    );
                }
            }
        }
    }
}

#[test]
#[should_panic(expected = "owned-only rules need")]
fn case_analysis_rule2_is_refused() {
    let g = gen::cycle(6);
    let ids: Vec<NodeId> = g.vertices().collect();
    CdsWorkspace::new().compute_owned(&g, &ids, &[0, 1], None, &CdsConfig::paper(Policy::Degree));
}

#[test]
#[should_panic(expected = "owned-only rules need")]
fn the_fixpoint_schedule_is_refused() {
    let g = gen::cycle(6);
    let ids: Vec<NodeId> = g.vertices().collect();
    CdsWorkspace::new().compute_owned(&g, &ids, &[0, 1], None, &CdsConfig::fixpoint(Policy::Id));
}

#[test]
#[should_panic(expected = "id table length must equal n")]
fn a_short_id_table_is_refused() {
    let g = gen::cycle(6);
    CdsWorkspace::new().compute_owned(&g, &[0, 1], &[0, 1], None, &CdsConfig::policy(Policy::Id));
}
