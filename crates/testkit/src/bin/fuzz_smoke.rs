//! Time-bounded randomized conformance smoke.
//!
//! Default mode generates random topologies (unit-disk at the paper's
//! density, plus G(n, p) as a non-geometric control), walks the
//! configuration matrix, and differentially checks every applicable
//! implementation against the oracle until the time budget runs out.
//!
//! `PACDS_FUZZ_MODE=churn` instead fuzzes the churn engine: random event
//! traces (mobility walks, death bursts, battery drains, mixed streams)
//! against random unit-disk instances — about a quarter of them on the
//! engine's derived grid (`shards: 0`, a 250–500-wide arena with 600–1600
//! hosts) — replayed through `ChurnEngine::apply`/`refresh` with the
//! incremental state checked against both from-scratch oracles after
//! **every** event, across the shardable configuration matrix.
//!
//! Exit code 1 on any mismatch or implementation panic, after shrinking
//! and emitting a replayable case/trace file.
//!
//! Environment:
//! * `PACDS_FUZZ_SECS` — time budget in seconds (default 60).
//! * `PACDS_FUZZ_SEED` — base seed (default 0xC0FFEE).
//! * `PACDS_FUZZ_MODE` — `matrix` (default) or `churn`.
//! * `PACDS_TESTKIT_CASE_DIR` — where failure case/trace files go.

use pacds_geom::{placement, Rect};
use pacds_graph::gen;
use pacds_testkit::churn::{
    death_burst_trace, drain_trace, mixed_trace, mobility_trace, shardable_matrix, ChurnReport,
    TraceArena,
};
use pacds_testkit::harness::{check_impl, full_config_matrix, ImplKind};
use pacds_testkit::oracle;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Churn fuzzing: each iteration draws a random trace family with random
/// size/length and replays it under every shardable configuration,
/// checking bit-identity after every event.
fn churn_smoke(budget: Duration, seed: u64) {
    let matrix = shardable_matrix();
    let start = Instant::now();
    let mut iterations = 0u64;
    let mut report = ChurnReport::new();

    while start.elapsed() < budget {
        let trace_seed = seed.wrapping_add(iterations.wrapping_mul(0x9E37_79B9));
        let mut rng = StdRng::seed_from_u64(trace_seed);
        // About one trace in four runs on the engine's derived grid: a
        // wider arena with enough hosts for several tiles.
        let (arena, n) = if rng.random_range(0..4u32) == 0 {
            let side = rng.random_range(250.0..=500.0);
            (TraceArena::derived(side), rng.random_range(600..=1600usize))
        } else {
            (TraceArena::paper(), rng.random_range(10..=80usize))
        };
        let steps = rng.random_range(5..=40usize);
        let trace = match iterations % 4 {
            0 => mobility_trace(arena, trace_seed, n, steps),
            1 => death_burst_trace(arena, trace_seed, n, (steps / 8).max(1), 4),
            2 => drain_trace(arena, trace_seed, n, steps),
            _ => mixed_trace(arena, trace_seed, n, steps),
        };
        for cfg in &matrix {
            report.check_trace(&trace, cfg);
        }
        iterations += 1;
    }

    println!(
        "churn fuzz smoke: {iterations} traces, {} replays, {} events checked, {} divergence(s) in {:.1}s",
        report.replays,
        report.events,
        report.failures.len(),
        start.elapsed().as_secs_f64()
    );
    if !report.failures.is_empty() {
        for path in &report.failures {
            eprintln!("failing trace: {}", path.display());
        }
        std::process::exit(1);
    }
}

fn main() {
    let budget = Duration::from_secs(env_u64("PACDS_FUZZ_SECS", 60));
    let seed = env_u64("PACDS_FUZZ_SEED", 0xC0FFEE);
    if std::env::var("PACDS_FUZZ_MODE").as_deref() == Ok("churn") {
        return churn_smoke(budget, seed);
    }
    let matrix = full_config_matrix();
    let start = Instant::now();

    let mut iterations = 0u64;
    let mut checks = 0u64;
    let mut failures = Vec::new();

    while start.elapsed() < budget {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(iterations));
        let n = rng.random_range(3..=100usize);
        let g = if iterations.is_multiple_of(2) {
            let pts = placement::uniform_points(&mut rng, Rect::paper_arena(), n);
            gen::unit_disk(Rect::paper_arena(), 25.0, &pts)
        } else {
            let p = rng.random_range(0.02..0.4);
            gen::gnp(&mut rng, n, p)
        };
        let energy: Vec<u64> = (0..n).map(|_| rng.random_range(0..8u64)).collect();
        let cfg = matrix[(iterations % matrix.len() as u64) as usize];
        let expected = oracle::compute_cds_oracle(&g, Some(&energy), &cfg);

        for kind in ImplKind::ALL {
            if !kind.applicable(&cfg) {
                continue;
            }
            checks += 1;
            let name = format!("fuzz-{iterations}");
            if let Some(path) = check_impl(&name, kind, &g, &energy, &cfg, &expected) {
                eprintln!(
                    "FAILED: {} vs oracle under {cfg:?} (iteration {iterations}); shrunk case: {}",
                    kind.name(),
                    path.display()
                );
                failures.push(path);
            }
        }
        iterations += 1;
    }

    println!(
        "fuzz smoke: {iterations} topologies, {checks} differential checks, {} mismatch(es) in {:.1}s",
        failures.len(),
        start.elapsed().as_secs_f64()
    );
    if !failures.is_empty() {
        std::process::exit(1);
    }
}
