//! Micro-benchmarks of the CDS pipeline: marking, rule passes, and the
//! end-to-end computation per policy, on paper-scale and larger unit-disk
//! graphs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pacds_core::{
    compute_cds, marking, rule1_pass, rule2_pass, CdsConfig, CdsInput, Policy, PriorityKey,
    Rule2Semantics,
};
use pacds_graph::{gen, Graph, NeighborBitmap};
use rand::SeedableRng;
use std::hint::black_box;

/// A connected unit-disk graph of `n` hosts at paper density (the arena is
/// scaled with sqrt(n) to keep average degree comparable to n=100 at
/// 100x100 / r=25).
fn udg(n: usize, seed: u64) -> (Graph, Vec<u64>) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let side = 100.0 * (n as f64 / 100.0).sqrt();
    let bounds = pacds_geom::Rect::square(side.max(1.0));
    let pts = pacds_geom::placement::uniform_points(&mut rng, bounds, n);
    let g = gen::unit_disk(bounds, 25.0, &pts);
    let energy = (0..n).map(|i| (i as u64 * 7919) % 100).collect();
    (g, energy)
}

fn bench_marking(c: &mut Criterion) {
    let mut group = c.benchmark_group("marking");
    for n in [50usize, 100, 500, 2000] {
        let (g, _) = udg(n, 42);
        group.bench_with_input(BenchmarkId::from_parameter(n), &g, |b, g| {
            b.iter(|| black_box(marking(g)))
        });
    }
    group.finish();
}

fn bench_rule_passes(c: &mut Criterion) {
    let mut group = c.benchmark_group("rule_passes");
    let (g, energy) = udg(100, 43);
    let bm = NeighborBitmap::build(&g);
    let marked = marking(&g);
    for policy in [
        Policy::Id,
        Policy::Degree,
        Policy::Energy,
        Policy::EnergyDegree,
    ] {
        let key = PriorityKey::build(policy, &g, Some(&energy));
        group.bench_function(format!("rule1/{}", policy.label()), |b| {
            b.iter(|| black_box(rule1_pass(&g, &bm, &marked, &key, None)))
        });
        let after1 = rule1_pass(&g, &bm, &marked, &key, None);
        group.bench_function(format!("rule2_safe/{}", policy.label()), |b| {
            b.iter(|| {
                black_box(rule2_pass(
                    &g,
                    &bm,
                    &after1,
                    &key,
                    Rule2Semantics::MinOfThree,
                    None,
                ))
            })
        });
        group.bench_function(format!("rule2_paper/{}", policy.label()), |b| {
            b.iter(|| {
                black_box(rule2_pass(
                    &g,
                    &bm,
                    &after1,
                    &key,
                    Rule2Semantics::CaseAnalysis,
                    None,
                ))
            })
        });
    }
    group.finish();
}

fn bench_end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("compute_cds");
    for n in [100usize, 500] {
        let (g, energy) = udg(n, 44);
        for policy in Policy::ALL {
            let cfg = CdsConfig::paper(policy);
            group.bench_function(format!("{}/{}", policy.label(), n), |b| {
                b.iter(|| black_box(compute_cds(&CdsInput::with_energy(&g, &energy), &cfg)))
            });
        }
    }
    group.finish();
}

fn bench_baselines(c: &mut Criterion) {
    let mut group = c.benchmark_group("baselines");
    let mut rng = rand::rngs::StdRng::seed_from_u64(45);
    let g = gen::connected_gnp(&mut rng, 100, 0.08, 20);
    group.bench_function("greedy_mcds/100", |b| {
        b.iter(|| black_box(pacds_baselines::greedy_mcds(&g)))
    });
    group.bench_function("greedy_ds/100", |b| {
        b.iter(|| black_box(pacds_baselines::greedy_dominating_set(&g)))
    });
    group.bench_function("lowest_id_clusters/100", |b| {
        b.iter(|| black_box(pacds_baselines::lowest_id_clusters(&g)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_marking,
    bench_rule_passes,
    bench_end_to_end,
    bench_baselines
);
criterion_main!(benches);
