//! Micro-benchmarks of dominating-set-based routing over the production
//! table: a fresh `BackboneRoutes` install plus all-pairs three-step
//! assembly (every destination tree built on first use), all-pairs
//! assembly over warm trees, and the stretch summary.

use criterion::{criterion_group, criterion_main, Criterion};
use pacds_core::{compute_cds, CdsConfig, CdsInput, Policy};
use pacds_graph::{algo, gen, Graph, NodeId};
use pacds_routing::{stretch_summary, BackboneRoutes};
use rand::SeedableRng;
use std::hint::black_box;

fn connected_udg(n: usize, seed: u64) -> Graph {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let side = 100.0 * (n as f64 / 100.0).sqrt();
    let bounds = pacds_geom::Rect::square(side);
    loop {
        let pts = pacds_geom::placement::uniform_points(&mut rng, bounds, n);
        let g = gen::unit_disk(bounds, 25.0, &pts);
        if algo::is_connected(&g) {
            return g;
        }
    }
}

/// Assembles every ordered pair through `routes`; returns the hop total.
fn all_pairs(g: &Graph, routes: &mut BackboneRoutes, path: &mut Vec<NodeId>) -> usize {
    let n = g.n() as NodeId;
    let mut hops = 0usize;
    for s in 0..n {
        for t in 0..n {
            if routes.assemble(g, s, t, path).is_ok() {
                hops += path.len() - 1;
            }
        }
    }
    hops
}

fn bench_routing(c: &mut Criterion) {
    let mut group = c.benchmark_group("routing");
    for n in [100usize, 300] {
        let g = connected_udg(n, 11);
        let cds = compute_cds(&CdsInput::new(&g), &CdsConfig::policy(Policy::Degree));
        let alive = vec![true; n];
        let mut path = Vec::new();
        group.bench_function(format!("install_route_all_pairs/{n}"), |b| {
            b.iter(|| {
                let mut routes = BackboneRoutes::new();
                routes.install(&cds, &alive);
                black_box(all_pairs(&g, &mut routes, &mut path))
            })
        });
        let mut routes = BackboneRoutes::new();
        routes.install(&cds, &alive);
        group.bench_function(format!("route_all_pairs_warm/{n}"), |b| {
            b.iter(|| black_box(all_pairs(&g, &mut routes, &mut path)))
        });
        group.bench_function(format!("stretch_summary/{n}"), |b| {
            b.iter(|| black_box(stretch_summary(&g, &mut routes)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_routing);
criterion_main!(benches);
