//! Property-based tests for dominating-set routing.

use pacds_core::{compute_cds, CdsConfig, CdsInput, Policy};
use pacds_graph::{algo, gen, Graph, NodeId};
use pacds_routing::{backbone_robustness, flood_cost, stretch_summary, BackboneRoutes};
use proptest::prelude::*;
use rand::SeedableRng;

/// Tables installed for `gateway` with every host alive.
fn installed(gateway: &[bool]) -> BackboneRoutes {
    let mut routes = BackboneRoutes::new();
    routes.install(gateway, &vec![true; gateway.len()]);
    routes
}

/// A connected unit-disk graph at paper parameters.
fn connected_udg() -> impl Strategy<Value = Graph> {
    (5usize..60, any::<u64>()).prop_map(|(n, seed)| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let bounds = pacds_geom::Rect::paper_arena();
        let pts = pacds_geom::placement::uniform_points(&mut rng, bounds, n);
        let g = gen::unit_disk(bounds, 25.0, &pts);
        let keep = algo::largest_component(&g);
        g.induced(&keep).0
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(100))]

    #[test]
    fn every_pair_routes_and_walks_are_valid(g in connected_udg()) {
        let cds = compute_cds(&CdsInput::new(&g), &CdsConfig::policy(Policy::Degree));
        let mut routes = installed(&cds);
        let n = g.n() as NodeId;
        let mut path = Vec::new();
        for s in 0..n {
            for t in 0..n {
                let r = routes.assemble(&g, s, t, &mut path);
                prop_assert!(r.is_ok(), "{s}->{t}: {r:?}");
                prop_assert_eq!(path.first(), Some(&s));
                prop_assert_eq!(path.last(), Some(&t));
                prop_assert!(path.windows(2).all(|w| g.has_edge(w[0], w[1])));
                // Routes never revisit a host.
                let uniq: std::collections::HashSet<_> = path.iter().collect();
                prop_assert_eq!(uniq.len(), path.len());
            }
        }
    }

    #[test]
    fn stretch_is_never_negative_and_failures_zero(g in connected_udg()) {
        for policy in [Policy::NoPruning, Policy::Id, Policy::Degree] {
            let cds = compute_cds(&CdsInput::new(&g), &CdsConfig::policy(policy));
            let s = stretch_summary(&g, &mut installed(&cds));
            prop_assert_eq!(s.failures, 0, "{:?}", policy);
            prop_assert!(s.mean_extra_hops >= 0.0);
            prop_assert!(s.optimal_fraction >= 0.0 && s.optimal_fraction <= 1.0);
        }
    }

    #[test]
    fn cds_flood_covers_the_component_from_any_source(g in connected_udg()) {
        let cds = compute_cds(&CdsInput::new(&g), &CdsConfig::policy(Policy::Id));
        let blind = flood_cost(&g, 0, None);
        let overlay = flood_cost(&g, 0, Some(&cds));
        prop_assert_eq!(blind.reached, g.n() - 1);
        prop_assert_eq!(overlay.reached, g.n() - 1);
        prop_assert!(overlay.transmissions <= blind.transmissions);
        // Gateway-only floods may be deeper but never shallower than the
        // eccentricity of the source.
        prop_assert!(overlay.depth >= blind.depth);
    }

    #[test]
    fn robustness_report_is_consistent(g in connected_udg()) {
        let cds = compute_cds(&CdsInput::new(&g), &CdsConfig::policy(Policy::Degree));
        let r = backbone_robustness(&g, &cds);
        prop_assert_eq!(r.gateways, cds.iter().filter(|&&b| b).count());
        prop_assert!((0.0..=1.0).contains(&r.spof_fraction));
        prop_assert!(r.backbone_cut_vertices.iter().all(|&v| cds[v as usize]));
        prop_assert!(r.sole_dominators.iter().all(|&v| cds[v as usize]));
        prop_assert!(r.backbone_cut_vertices.len() + r.sole_dominators.len()
            >= (r.spof_fraction * r.gateways as f64).round() as usize);
    }
}
