//! Horizontal-scaling bench of the `pacds-cluster` coordinator.
//!
//! For each backend count in [`BACKENDS`] the binary spawns that many
//! in-process `pacds-serve` backends and one coordinator, then drives
//! the closed-loop load generator *through* the coordinator: `GenCompute`
//! requests cycling over a wheel of distinct
//! seeds (distinct canonical digests — the keyspace actually spreads
//! across the ring) with `FLAG_NO_CACHE`, so every request costs a full
//! topology build + CDS compute on a backend. Cache-warm requests would
//! measure the result cache, not the horizontal capacity.
//!
//! After the sweep, a **kill drill** at the largest backend count: the
//! same load with one backend shut down mid-window. The drill gate is
//! the PR's headline contract — every request is still answered (zero
//! protocol/IO errors) and the failover is visible in the coordinator
//! counters (`failed_over` ≥ 1, `health_flips` ≥ 1).
//!
//! Throughput scaling 1 → 2 is asserted ≥ [`MIN_SCALING`] **only when
//! the machine has cores to scale onto** (`machine_threads` ≥ 4: two
//! backends plus coordinator and loadgen can't speed anything up when
//! they time-slice one core — same
//! precedent as `bench_shard`). On smaller machines the gate shifts to
//! the portable counters: both backends routed a meaningful share, zero
//! errors, failover observed. `scaling_gate` in the JSON records which
//! gate applied.
//!
//! Writes `BENCH_cluster.json` (override: `PACDS_BENCH_OUT`).

use pacds_bench::row::{self, Row};
use pacds_bench::Error;
use pacds_cluster::{cluster, BackendSpec, ClusterConfig, ClusterHandle};
use pacds_core::{CdsConfig, Policy};
use pacds_serve::{serve, LoadgenConfig, Mode, ServerConfig, ServerHandle};
use std::process::ExitCode;
use std::time::Duration;

const BACKENDS: [usize; 2] = [1, 2];
/// Hosts per generated topology, and the seeds the request wheel cycles.
const N: usize = 200;
const GEN_SEEDS: usize = 64;
const DURATION: Duration = Duration::from_secs(3);
const CONCURRENCY: usize = 4;
const MIN_SCALING: f64 = 1.7;

/// One backend, sized for fronting: the coordinator holds persistent
/// connections (pooled relays + the prober), and `pacds-serve` parks one
/// worker per open connection, so workers must exceed that appetite.
fn backend() -> ServerHandle {
    serve(
        "127.0.0.1:0",
        ServerConfig {
            workers: 8,
            queue: 0,
            cache_bytes: 64 << 20,
            shard: Default::default(),
            metrics_addr: None,
        },
    )
    .expect("bind backend")
}

fn coordinator(backends: &[&ServerHandle]) -> ClusterHandle {
    let specs: Vec<BackendSpec> = backends
        .iter()
        .enumerate()
        .map(|(i, b)| BackendSpec::new(format!("b{i}"), b.addr().to_string()))
        .collect();
    cluster(
        "127.0.0.1:0",
        &specs,
        ClusterConfig {
            workers: 4,
            probe_interval: Duration::from_millis(100),
            ..ClusterConfig::default()
        },
    )
    .expect("bind coordinator")
}

struct Point {
    backends: usize,
    report: pacds_serve::LoadReport,
    routed: Vec<u64>,
    counters: Vec<(String, u64)>,
}

fn counter(entries: &[(String, u64)], name: &str) -> u64 {
    entries.iter().find(|(n, _)| n == name).map_or(0, |e| e.1)
}

fn load_cfg(addr: String) -> LoadgenConfig {
    LoadgenConfig {
        addr,
        concurrency: CONCURRENCY,
        duration: DURATION,
        mode: Mode::Closed,
        cds: CdsConfig::policy(Policy::Degree),
        n: N,
        radius: 15.0,
        side: 100.0,
        seed: 1,
        gen_seeds: GEN_SEEDS,
        no_cache: true,
        deadline_ms: 0,
        mutate_every: 0,
        query_every: 0,
    }
}

/// Load through a coordinator fronting `backends` fresh backends. With
/// `kill`, one backend is shut down at the halfway mark and the
/// survivors absorb its keyspace.
fn run_point(backends: usize, kill: bool) -> Point {
    let mut hosted: Vec<ServerHandle> = (0..backends).map(|_| backend()).collect();
    let refs: Vec<&ServerHandle> = hosted.iter().collect();
    let mut coord = coordinator(&refs);
    let killer = kill.then(|| {
        let mut victim = hosted.pop().expect("at least one backend");
        std::thread::spawn(move || {
            std::thread::sleep(DURATION / 2);
            victim.shutdown();
        })
    });
    let report = pacds_serve::loadgen::run(&load_cfg(coord.addr().to_string()))
        .expect("loadgen through coordinator");
    if let Some(killer) = killer {
        killer.join().expect("killer thread");
    }
    let state = coord.state();
    let routed: Vec<u64> = state
        .backends
        .iter()
        .map(|b| b.routed.load(std::sync::atomic::Ordering::Relaxed))
        .collect();
    let counters = state.stats.entries(&state.backends);
    coord.shutdown();
    Point {
        backends,
        report,
        routed,
        counters,
    }
}

fn point_row(p: &Point, kind: &str) -> Row {
    Row::new()
        .with("kind", kind)
        .with("backends", p.backends)
        .with("requests", p.report.requests)
        .fixed("throughput_rps", p.report.throughput_rps, 1)
        .fixed("p50_us", p.report.p50_us, 1)
        .fixed("p99_us", p.report.p99_us, 1)
        .fixed("mean_us", p.report.mean_us, 1)
        .with("protocol_errors", p.report.protocol_errors)
        .with("io_errors", p.report.io_errors)
        .with("rejected", p.report.rejected)
        .with("routed_per_backend", p.routed.clone())
        .with("failed_over", counter(&p.counters, "cluster.failed_over"))
        .with("health_flips", counter(&p.counters, "cluster.health_flips"))
        .with("no_backend", counter(&p.counters, "cluster.no_backend"))
        .with(
            "backends_available_after",
            counter(&p.counters, "cluster.backends_available"),
        )
}

fn main() -> ExitCode {
    pacds_bench::exit(bench())
}

fn bench() -> Result<(), Error> {
    let machine_threads = row::machine_threads();
    // Two backends + coordinator + loadgen need cores to show wall-clock
    // scaling; below this the counters are the gate.
    let wall_clock_trusted = machine_threads >= 4;

    let mut points = Vec::new();
    for backends in BACKENDS {
        let p = run_point(backends, false);
        println!(
            "backends={backends}  {} requests, {:.0} req/s, p50={:.1}µs p99={:.1}µs  routed={:?}",
            p.report.requests, p.report.throughput_rps, p.report.p50_us, p.report.p99_us, p.routed,
        );
        if p.report.protocol_errors + p.report.io_errors > 0 {
            return Err(format!("backends={backends}: loadgen saw errors").into());
        }
        if p.routed.contains(&0) {
            return Err(format!("backends={backends}: a backend routed nothing").into());
        }
        points.push(p);
    }

    // Ring balance on the widest point: no backend owns an outsized or
    // vanishing share of a 64-seed wheel (the spread() mix is what keeps
    // this true — see the ring tests for the distributional version).
    let widest = &points[points.len() - 1];
    let total: u64 = widest.routed.iter().sum();
    for (i, &r) in widest.routed.iter().enumerate() {
        let share = r as f64 / total as f64;
        if !(0.15..=0.85).contains(&share) {
            return Err(format!(
                "backend {i} owns {:.0}% of the keyspace (routed={:?})",
                share * 100.0,
                widest.routed
            )
            .into());
        }
    }

    let scaling_1_to_2 = points[1].report.throughput_rps / points[0].report.throughput_rps;
    let gate = if wall_clock_trusted {
        "wall_clock"
    } else {
        "counters"
    };
    println!(
        "scaling 1 -> 2 backends: {scaling_1_to_2:.2}x (machine_threads={machine_threads}, \
         gate: {gate})"
    );
    if wall_clock_trusted && scaling_1_to_2 < MIN_SCALING {
        return Err(format!(
            "1 -> 2 backend scaling {scaling_1_to_2:.2}x < required {MIN_SCALING}x"
        )
        .into());
    }

    let drill = run_point(widest.backends, true);
    let failed_over = counter(&drill.counters, "cluster.failed_over");
    let health_flips = counter(&drill.counters, "cluster.health_flips");
    println!(
        "kill drill: {} requests, {failed_over} failed over, {health_flips} health flips, \
         {} protocol err, {} io err",
        drill.report.requests, drill.report.protocol_errors, drill.report.io_errors,
    );
    if drill.report.protocol_errors + drill.report.io_errors > 0 {
        return Err("kill drill saw request errors — failover lost answers".into());
    }
    if failed_over == 0 || health_flips == 0 {
        return Err("kill drill did not register a failover in the counters".into());
    }

    let rows = points
        .iter()
        .map(|p| point_row(p, "scaling"))
        .chain(std::iter::once(point_row(&drill, "kill_drill")))
        .collect();
    let extra = Row::new()
        .fixed("duration_s", DURATION.as_secs_f64(), 1)
        .with("concurrency", CONCURRENCY)
        .with("n", N)
        .with("gen_seeds", GEN_SEEDS)
        .with("scaling_gate", gate)
        .with("min_scaling", MIN_SCALING)
        .fixed("scaling_1_to_2", scaling_1_to_2, 2);
    let text = row::file(
        "cluster_scaling",
        "GenCompute wheel (no_cache) through the coordinator; wall-clock scaling only gates \
         when machine_threads >= 4, counters (routed spread, zero errors, observed failover) \
         gate everywhere",
        "req/s",
        extra,
        rows,
    );
    row::write(&pacds_bench::bench_out("BENCH_cluster.json"), &text)
}
