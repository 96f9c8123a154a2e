//! `BackboneRoutes` against the dense Figure-2 oracle
//! (`pacds_testkit::oracle::DenseTables`).
//!
//! The production table keeps one distance array per destination gateway
//! and repairs it in place; the oracle runs one BFS per live gateway over
//! the live gateway subgraph. Both take the smallest-id neighbour one hop
//! closer at every walk step, so they must agree on every route — the
//! whole path, not just its length — and on every error. Each cached
//! distance array must equal the oracle's BFS row for its destination.

use pacds_core::{compute_cds, CdsConfig, CdsInput, Policy};
use pacds_graph::{gen, Graph, NodeId};
use pacds_routing::BackboneRoutes;
use pacds_testkit::corpus;
use pacds_testkit::oracle::DenseTables;
use rand::{Rng, SeedableRng};

/// Checks `routes` (installed for `gateway`/`alive`) against the oracle:
/// every ordered pair routes to the oracle's path or fails with its
/// error, then every cached array equals the oracle's distances.
fn check(routes: &mut BackboneRoutes, g: &Graph, gateway: &[bool], alive: &[bool], label: &str) {
    let oracle = DenseTables::build(g, gateway, alive);
    let n = g.n() as NodeId;
    let stride = (n as usize / 24).max(1);
    let mut out = Vec::new();
    for s in (0..n).step_by(stride) {
        for t in 0..n {
            let got = routes.assemble(g, s, t, &mut out).map(|()| out.clone());
            assert_eq!(got, oracle.route(g, s, t), "{label}: route {s}->{t}");
        }
    }
    let dests: Vec<NodeId> = routes.cached_destinations().collect();
    for dg in dests {
        assert_eq!(
            routes.distances(g, dg),
            oracle.distances_to(dg),
            "{label}: tree {dg}"
        );
    }
}

#[test]
fn routes_equal_the_dense_oracle_on_the_corpus() {
    let mut cases = corpus::named_families();
    cases.extend(corpus::random_unit_disk_cases(0xDA7A, 20));
    let mut checked = 0;
    for case in &cases {
        let g = &case.graph;
        for policy in [Policy::Id, Policy::Degree] {
            let input = CdsInput::with_energy(g, &case.energy);
            let gateway = compute_cds(&input, &CdsConfig::policy(policy));
            let alive = vec![true; g.n()];
            let mut routes = BackboneRoutes::new();
            routes.install(&gateway, &alive);
            check(&mut routes, g, &gateway, &alive, &case.name);
        }
        checked += 1;
    }
    assert!(checked >= 40, "corpus shrank? only {checked} cases checked");
}

#[test]
fn repaired_trees_equal_the_oracle_as_hosts_leave_and_join() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(23);
    let bounds = pacds_geom::Rect::square(150.0);
    let mut repaired = 0;
    for round in 0..4 {
        let pts = pacds_geom::placement::uniform_points(&mut rng, bounds, 120);
        let g = gen::unit_disk(bounds, 25.0, &pts);
        let n = g.n();
        let mut gw = compute_cds(&CdsInput::new(&g), &CdsConfig::policy(Policy::Degree));
        let mut alive = vec![true; n];
        let mut routes = BackboneRoutes::new();
        routes.install(&gw, &alive);
        let dests: Vec<NodeId> = (0..n as NodeId)
            .filter(|&v| gw[v as usize])
            .step_by(7)
            .collect();
        for step in 0..20 {
            for &dg in &dests {
                routes.distances(&g, dg);
            }
            let label = format!("round {round} step {step}");
            check(&mut routes, &g, &gw, &alive, &label);
            // A few hosts die (through the mask alone: the graph keeps
            // their rows, as a churn network's does), a few gateways are
            // demoted, a few non-gateways are promoted.
            for _ in 0..rng.random_range(1..4) {
                let v = rng.random_range(0..n);
                match rng.random_range(0..3) {
                    0 => alive[v] = false,
                    1 => gw[v] = false,
                    _ => gw[v] = true,
                }
            }
            routes.install(&gw, &alive);
            for &dg in &dests {
                routes.distances(&g, dg);
            }
            repaired += routes.trees_repaired();
            check(&mut routes, &g, &gw, &alive, &label);
        }
    }
    assert!(repaired > 100, "repairs ran: {repaired}");
}

#[test]
fn ties_go_to_the_smallest_id_neighbour_after_repair_too() {
    // Grid 4×4, all gateways: many equal-length paths from 0 to 15.
    let g = gen::grid(4, 4);
    let mut gw = vec![true; 16];
    let alive = vec![true; 16];
    let mut routes = BackboneRoutes::new();
    routes.install(&gw, &alive);
    check(&mut routes, &g, &gw, &alive, "fresh");
    // Demote an interior host and promote it back: two repairs, and the
    // paths are the fresh build's again.
    for flip in [false, true] {
        gw[5] = flip;
        routes.install(&gw, &alive);
        check(&mut routes, &g, &gw, &alive, &format!("host 5 -> {flip}"));
    }
    assert_eq!(routes.trees_repaired() + routes.trees_built(), 16);
}
