//! The tentpole benchmark: one Monte-Carlo interval (mobility step +
//! topology rebuild + CDS recomputation) with the allocating per-call
//! pipeline versus the retained [`CdsWorkspace`] + in-place CSR rebuild.
//!
//! `alloc_per_interval` is what the simulator did before the workspace
//! refactor: build a fresh adjacency-list `Graph` and run the frozen v0
//! pipeline ([`pacds_bench::seed_baseline`]), allocating every
//! intermediate mask, key table and bitmap. `reuse` is the current hot
//! path: `gen::unit_disk_csr` writes edges straight into retained CSR
//! arrays and the workspace reuses every buffer. Both sides verify the
//! resulting CDS, matching one full simulator interval.
//! `BENCH_workspace.json` (emitted by the `bench_workspace` binary)
//! records the same comparison as a committed artifact.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pacds_bench::seed_baseline::compute_cds_seed;
use pacds_core::{verify_cds, CdsConfig, CdsWorkspace, Policy};
use pacds_geom::{Point2, Rect};
use pacds_graph::{gen, CsrGraph};
use pacds_mobility::{MobilityModel, PaperWalk};
use rand::SeedableRng;
use std::hint::black_box;

const RADIUS: f64 = 25.0;

/// Paper-density arena: scaled with sqrt(n) so average degree matches the
/// paper's n=100 in a 100x100 arena.
fn arena(n: usize) -> Rect {
    Rect::square((100.0 * (n as f64 / 100.0).sqrt()).max(1.0))
}

struct Interval {
    bounds: Rect,
    positions: Vec<Point2>,
    walk: PaperWalk,
    energy: Vec<u64>,
    rng: rand::rngs::StdRng,
}

impl Interval {
    fn new(n: usize, seed: u64) -> Self {
        let bounds = arena(n);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let positions = pacds_geom::placement::uniform_points(&mut rng, bounds, n);
        let energy = (0..n).map(|i| (i as u64 * 7919) % 100).collect();
        Self {
            bounds,
            positions,
            walk: PaperWalk::paper(),
            energy,
            rng,
        }
    }

    fn step(&mut self) {
        self.walk
            .step(&mut self.rng, self.bounds, &mut self.positions);
    }
}

fn bench_workspace(c: &mut Criterion) {
    let cfg = CdsConfig::policy(Policy::EnergyDegree);
    let mut group = c.benchmark_group("workspace");
    group.sample_size(10);
    for n in [100usize, 1000, 10000] {
        group.bench_with_input(BenchmarkId::new("alloc_per_interval", n), &n, |b, &n| {
            let mut iv = Interval::new(n, 42);
            b.iter(|| {
                iv.step();
                let g = gen::unit_disk(iv.bounds, RADIUS, &iv.positions);
                let cds = compute_cds_seed(&g, Some(&iv.energy), &cfg);
                let _ = black_box(verify_cds(&g, &cds));
                black_box(cds)
            })
        });
        group.bench_with_input(BenchmarkId::new("reuse", n), &n, |b, &n| {
            let mut iv = Interval::new(n, 42);
            let mut csr = CsrGraph::new();
            let mut scratch = gen::UnitDiskScratch::new();
            let mut ws = CdsWorkspace::with_capacity(n);
            b.iter(|| {
                iv.step();
                gen::unit_disk_csr(
                    iv.bounds,
                    RADIUS,
                    &iv.positions,
                    None,
                    &mut csr,
                    &mut scratch,
                );
                ws.compute(&csr, Some(&iv.energy), &cfg);
                let _ = black_box(ws.verify_last(&csr));
                black_box(ws.gateway_count())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_workspace);
criterion_main!(benches);
