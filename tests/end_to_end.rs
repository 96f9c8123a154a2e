//! Cross-crate integration: placement → unit-disk graph → CDS → routing
//! tables → packet delivery, for every policy, plus the distributed
//! protocol equivalence at full pipeline scale.

use pacds::core::{compute_cds, CdsConfig, CdsInput, Policy};
use pacds::distributed::{run_distributed, Schedule};
use pacds::graph::{algo, gen, NodeId};
use pacds::routing::{stretch_summary, BackboneRoutes};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Route tables installed for `gateway` with every host alive.
fn installed(gateway: &[bool]) -> BackboneRoutes {
    let mut routes = BackboneRoutes::new();
    routes.install(gateway, &vec![true; gateway.len()]);
    routes
}

fn connected_network(n: usize, seed: u64) -> pacds::graph::Graph {
    let bounds = pacds::geom::Rect::paper_arena();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    loop {
        let pts = pacds::geom::placement::uniform_points(&mut rng, bounds, n);
        let g = gen::unit_disk(bounds, 25.0, &pts);
        if algo::is_connected(&g) {
            return g;
        }
    }
}

#[test]
fn every_policy_supports_full_packet_delivery() {
    for seed in [1u64, 2, 3] {
        let g = connected_network(45, seed);
        let energy: Vec<u64> = (0..g.n() as u64).map(|i| (i * 17) % 100).collect();
        for policy in Policy::ALL {
            let cds = compute_cds(
                &CdsInput::with_energy(&g, &energy),
                &CdsConfig::policy(policy),
            );
            let mut routes = installed(&cds);
            let mut path = Vec::new();
            for s in (0..g.n() as NodeId).step_by(5) {
                for t in (0..g.n() as NodeId).step_by(7) {
                    routes
                        .assemble(&g, s, t, &mut path)
                        .unwrap_or_else(|e| panic!("{policy:?} {s}->{t}: {e}"));
                    assert_eq!(path.first(), Some(&s));
                    assert_eq!(path.last(), Some(&t));
                    assert!(path.windows(2).all(|w| g.has_edge(w[0], w[1])));
                }
            }
        }
    }
}

#[test]
fn pruning_trades_set_size_for_stretch() {
    let g = connected_network(60, 9);
    let nr = compute_cds(&CdsInput::new(&g), &CdsConfig::policy(Policy::NoPruning));
    let nd = compute_cds(&CdsInput::new(&g), &CdsConfig::paper(Policy::Degree));
    let count = |m: &[bool]| m.iter().filter(|&&b| b).count();
    assert!(count(&nd) <= count(&nr));

    let s_nr = stretch_summary(&g, &mut installed(&nr));
    let s_nd = stretch_summary(&g, &mut installed(&nd));
    assert_eq!(s_nr.failures, 0);
    // NR satisfies Property 3: every pair routes along a true shortest path
    // except for the enter/leave hops.
    assert!(s_nr.mean_extra_hops <= s_nd.mean_extra_hops + 2.0);
    if pacds::core::verify_cds(&g, &nd).is_ok() {
        assert_eq!(s_nd.failures, 0);
    }
}

#[test]
fn distributed_protocol_agrees_on_unit_disk_networks() {
    for seed in [11u64, 12] {
        let g = connected_network(50, seed);
        let energy: Vec<u64> = (0..g.n() as u64).map(|i| (i * 23) % 100).collect();
        for policy in Policy::ALL {
            for cfg in [CdsConfig::policy(policy), CdsConfig::paper(policy)] {
                let central = compute_cds(&CdsInput::with_energy(&g, &energy), &cfg);
                for schedule in [Schedule::Fifo, Schedule::Shuffled(seed)] {
                    let run = run_distributed(&g, Some(&energy), &cfg, schedule);
                    assert_eq!(central, run.gateways, "{policy:?} {schedule:?}");
                }
            }
        }
    }
}

#[test]
fn baselines_compare_sanely_with_marking() {
    let g = connected_network(70, 21);
    let count = |m: &[bool]| m.iter().filter(|&&b| b).count();

    let marked = compute_cds(&CdsInput::new(&g), &CdsConfig::policy(Policy::NoPruning));
    let pruned = compute_cds(&CdsInput::new(&g), &CdsConfig::paper(Policy::Degree));
    let mcds = pacds::baselines::greedy_mcds(&g);
    assert!(pacds::core::verify_cds(&g, &mcds).is_ok());

    // The centralized greedy has global knowledge: it should beat the raw
    // marking and be competitive with (typically beat) local pruning.
    assert!(count(&mcds) <= count(&marked));
    assert!(count(&mcds) <= count(&pruned) + 5);

    // Lowest-ID clusterheads dominate; with borders the overlay dominates.
    let clustering = pacds::baselines::lowest_id_clusters(&g);
    assert!(pacds::core::verify::is_dominating_set(
        &g,
        &clustering.is_head
    ));
    let overlay = pacds::baselines::cluster_gateways(&g, &clustering);
    assert!(pacds::core::verify::is_dominating_set(&g, &overlay));
}
