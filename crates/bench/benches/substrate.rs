//! Micro-benchmarks of the substrates: unit-disk construction (cell
//! binning vs naive, and the warm-scratch CSR builds), neighbourhood
//! bitmaps, BFS floods, and the serving layer's request key.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pacds_core::{CdsConfig, Policy};
use pacds_geom::{placement, Rect};
use pacds_graph::{algo, gen, Graph, NeighborBitmap};
use pacds_serve::keys;
use rand::SeedableRng;
use std::hint::black_box;

fn points(n: usize, side: f64, seed: u64) -> Vec<pacds_geom::Point2> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    placement::uniform_points(&mut rng, Rect::square(side), n)
}

fn bench_unit_disk(c: &mut Criterion) {
    let mut group = c.benchmark_group("unit_disk");
    for n in [100usize, 1000, 5000] {
        // Scale the arena to keep density constant.
        let side = 100.0 * (n as f64 / 100.0).sqrt();
        let pts = points(n, side, 7);
        let bounds = Rect::square(side);
        group.bench_with_input(BenchmarkId::new("grid", n), &pts, |b, pts| {
            b.iter(|| black_box(gen::unit_disk(bounds, 25.0, pts)))
        });
        if n <= 1000 {
            group.bench_with_input(BenchmarkId::new("naive", n), &pts, |b, pts| {
                b.iter(|| black_box(gen::unit_disk_naive(25.0, pts)))
            });
        }
    }
    group.finish();
}

fn bench_unit_disk_csr(c: &mut Criterion) {
    // The interval-loop build: CSR straight from the points on warm
    // scratch, whole graph and one induced subset.
    let mut group = c.benchmark_group("unit_disk_csr");
    let pts = points(2000, 450.0, 8);
    let bounds = Rect::square(450.0);
    let (mut out, mut scratch) = (Graph::default(), gen::UnitDiskScratch::new());
    gen::unit_disk_csr(bounds, 25.0, &pts, None, &mut out, &mut scratch);
    group.bench_function("warm/2000", |b| {
        b.iter(|| {
            gen::unit_disk_csr(bounds, 25.0, &pts, None, &mut out, &mut scratch);
            black_box(out.m())
        })
    });
    let mut subset: Vec<u32> = (0..2000).step_by(2).collect();
    group.bench_function("subset_warm/1000", |b| {
        b.iter(|| {
            gen::unit_disk_csr_subset(25.0, &pts, &mut subset, &mut out, &mut scratch);
            black_box(out.m())
        })
    });
    // One tile window of the spatial engines: the ~370 hosts of a
    // 200 x 200 square gathered, in id order, from a 10^5-host arena at
    // mean degree ~18. Uniform placement makes the ids random in space,
    // so the window's positions are scattered across the arena's memory.
    let side = 3330.0;
    let arena = points(100_000, side, 10);
    let (lo, hi) = (side / 2.0 - 100.0, side / 2.0 + 100.0);
    let window: Vec<u32> = (0..arena.len() as u32)
        .filter(|&i| {
            let p = arena[i as usize];
            (lo..hi).contains(&p.x) && (lo..hi).contains(&p.y)
        })
        .collect();
    let mut subset = window.clone();
    group.bench_function("subset_tile", |b| {
        b.iter(|| {
            subset.copy_from_slice(&window);
            gen::unit_disk_csr_subset(25.0, &arena, &mut subset, &mut out, &mut scratch);
            black_box(out.m())
        })
    });
    group.finish();
}

fn bench_graph_algos(c: &mut Criterion) {
    let mut group = c.benchmark_group("graph_algos");
    let side = 100.0 * (2000f64 / 100.0).sqrt();
    let pts = points(2000, side, 9);
    let g = gen::unit_disk(Rect::square(side), 25.0, &pts);
    group.bench_function("bitmap_build/2000", |b| {
        b.iter(|| black_box(NeighborBitmap::build(&g)))
    });
    group.bench_function("bfs/2000", |b| {
        b.iter(|| black_box(algo::bfs_distances(&g, 0)))
    });
    group.bench_function("components/2000", |b| {
        b.iter(|| black_box(algo::connected_components(&g)))
    });
    group.finish();
}

fn bench_request_key(c: &mut Criterion) {
    // The key a cache-warm `ComputeCds` pays before its lookup: config,
    // the raw n x 8-byte energy block and the canonical edge list. n = 200
    // is the shape of the wire workloads' warm request (~1.6k edges).
    let mut group = c.benchmark_group("request_key");
    let cfg = CdsConfig::policy(Policy::Energy);
    for n in [200usize, 2000] {
        let side = 100.0 * (n as f64 / 100.0).sqrt();
        let g = gen::unit_disk(Rect::square(side), 25.0, &points(n, side, 11));
        let edges: Vec<_> = g.edges().collect();
        let energy: Vec<u8> = (0..n as u64)
            .flat_map(|v| (v % 10 + 1).to_le_bytes())
            .collect();
        group.bench_with_input(BenchmarkId::new("compute_key", n), &edges, |b, edges| {
            b.iter(|| black_box(keys::compute_key(&cfg, Some(&energy), n as u32, edges)))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_unit_disk,
    bench_unit_disk_csr,
    bench_graph_algos,
    bench_request_key
);
criterion_main!(benches);
