//! Micro-benchmarks of the substrates: unit-disk construction (cell
//! binning vs naive, and the warm-scratch CSR builds), neighbourhood
//! bitmaps, and BFS floods.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pacds_geom::{placement, Rect};
use pacds_graph::{algo, gen, CsrGraph, NeighborBitmap};
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
    let (mut out, mut scratch) = (CsrGraph::new(), gen::UnitDiskScratch::new());
    gen::unit_disk_csr(bounds, 25.0, &pts, None, &mut out, &mut scratch);
    group.bench_function("warm/2000", |b| {
        b.iter(|| {
            gen::unit_disk_csr(bounds, 25.0, &pts, None, &mut out, &mut scratch);
            black_box(out.m())
        })
    });
    let subset: Vec<u32> = (0..2000).step_by(2).collect();
    group.bench_function("subset_warm/1000", |b| {
        b.iter(|| {
            gen::unit_disk_csr_subset(25.0, &pts, &subset, &mut out, &mut scratch);
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

criterion_group!(
    benches,
    bench_unit_disk,
    bench_unit_disk_csr,
    bench_graph_algos
);
criterion_main!(benches);
