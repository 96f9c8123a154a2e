//! Benchmarks of the simulation loop itself: the cost of one full lifetime
//! run per drain model, and the distributed protocol under each delivery
//! schedule.

use criterion::{criterion_group, criterion_main, Criterion};
use pacds_core::{CdsConfig, Policy};
use pacds_distributed::{run_distributed, Schedule};
use pacds_energy::DrainModel;
use pacds_sim::{SimConfig, Simulation};
use rand::SeedableRng;
use std::hint::black_box;

fn bench_lifetime_runs(c: &mut Criterion) {
    let mut group = c.benchmark_group("lifetime_run");
    group.sample_size(10);
    for model in [DrainModel::LinearInN, DrainModel::QuadraticInN] {
        for policy in [Policy::Id, Policy::Energy] {
            let cfg = SimConfig::paper(50, policy, model);
            group.bench_function(format!("{}/{}", policy.label(), model.label()), |b| {
                b.iter(|| {
                    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
                    let sim = Simulation::new(cfg, &mut rng).without_verification();
                    black_box(sim.run_lifetime(&mut rng))
                })
            });
        }
    }
    group.finish();
}

fn bench_distributed(c: &mut Criterion) {
    let mut group = c.benchmark_group("distributed");
    group.sample_size(20);
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let g = pacds_graph::gen::connected_gnp(&mut rng, 80, 0.08, 20);
    let energy: Vec<u64> = (0..g.n()).map(|i| (i as u64 * 31) % 100).collect();
    let cfg = CdsConfig::paper(Policy::EnergyDegree);
    for (label, schedule) in [
        ("fifo", Schedule::Fifo),
        ("shuffled", Schedule::Shuffled(5)),
    ] {
        group.bench_function(format!("{label}/80"), |b| {
            b.iter(|| black_box(run_distributed(&g, Some(&energy), &cfg, schedule)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_lifetime_runs, bench_distributed);
criterion_main!(benches);
