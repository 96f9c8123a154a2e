//! Cross-cutting simulator properties: determinism per seed, agreement
//! between the trace recorder and the lifetime loop, and pinned
//! Monte-Carlo outputs.

use pacds_core::Policy;
use pacds_energy::DrainModel;
use pacds_sim::experiments::{lifetime_experiment, SweepConfig};
use pacds_sim::{run_extended_lifetime, SimConfig, Simulation, Summary, TraceRecorder};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn cfg(n: usize, policy: Policy) -> SimConfig {
    SimConfig::paper(n, policy, DrainModel::LinearInN)
}

#[test]
fn lifetime_is_a_pure_function_of_seed_and_config() {
    for policy in [Policy::Id, Policy::Energy] {
        let run = |seed: u64| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            Simulation::new(cfg(25, policy), &mut rng).run_lifetime(&mut rng)
        };
        assert_eq!(run(5), run(5));
        // Different seeds should (almost surely) differ in some field.
        let (a, b) = (run(5), run(6));
        assert!(
            a != b || a.intervals == b.intervals,
            "distinct seeds produced byte-identical outcomes repeatedly"
        );
    }
}

#[test]
fn trace_recorder_agrees_with_lifetime_loop() {
    let c = cfg(20, Policy::Energy);
    let lifetime = {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        Simulation::new(c, &mut rng)
            .without_verification()
            .run_lifetime(&mut rng)
    };
    let trace = {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        TraceRecorder::record(c, c.max_intervals, &mut rng)
    };
    // The trace ends on the interval of the first death; its record count
    // equals the lifetime interval count.
    assert_eq!(trace.records().len() as u32, lifetime.intervals);
    let last = trace.records().last().unwrap();
    assert!(!last.deaths.is_empty());
    // Gateway counts agree on average.
    let mean_gw: f64 = trace
        .records()
        .iter()
        .map(|r| r.gateways.len() as f64)
        .sum::<f64>()
        / trace.records().len() as f64;
    assert!((mean_gw - lifetime.mean_gateways).abs() < 1e-9);
}

#[test]
fn experiments_are_reproducible_across_invocations() {
    let sweep = SweepConfig {
        sizes: vec![20],
        trials: 4,
        seed: 77,
        policies: vec![Policy::Id, Policy::Energy],
    };
    let a = lifetime_experiment(&sweep, DrainModel::LinearInN);
    let b = lifetime_experiment(&sweep, DrainModel::LinearInN);
    for (sa, sb) in a.iter().zip(&b) {
        assert_eq!(sa.label, sb.label);
        for (pa, pb) in sa.points.iter().zip(&sb.points) {
            assert_eq!(pa.1.mean, pb.1.mean);
        }
    }
}

#[test]
fn lifetime_experiment_summaries_are_pinned() {
    // Exact Model 2 lifetimes at N = 20: any change to trial seeding,
    // trial order or the interval loop moves these values.
    let sweep = SweepConfig {
        sizes: vec![20],
        trials: 4,
        seed: 77,
        policies: vec![Policy::Id, Policy::Energy],
    };
    let series = lifetime_experiment(&sweep, DrainModel::LinearInN);
    let got: Vec<(&str, usize, Summary)> = series
        .iter()
        .flat_map(|s| s.points.iter().map(|&(n, sum)| (s.label.as_str(), n, sum)))
        .collect();
    let summary = |mean, stddev, ci95, min, max| Summary {
        n: 4,
        mean,
        stddev,
        ci95,
        min,
        max,
    };
    assert_eq!(
        got,
        vec![
            (
                "ID",
                20,
                summary(36.25, 4.645786621588784, 4.552870889157008, 30.0, 41.0)
            ),
            (
                "EL1",
                20,
                summary(51.25, 4.031128874149275, 3.950506296666289, 48.0, 57.0)
            ),
        ]
    );
}

#[test]
fn extended_lifetime_is_deterministic_and_ordered() {
    let run = || {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        run_extended_lifetime(cfg(24, Policy::EnergyDegree), &mut rng)
    };
    let (a, b) = (run(), run());
    assert_eq!(a, b);
    assert!(a.first_death <= a.quarter_dead);
    assert!(a.quarter_dead <= a.half_dead);
}

#[test]
fn on_off_runs_are_deterministic() {
    let mut c = cfg(25, Policy::Energy);
    c.off_probability = 0.3;
    let run = || {
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        Simulation::new(c, &mut rng)
            .without_verification()
            .run_lifetime(&mut rng)
    };
    assert_eq!(run(), run());
}
