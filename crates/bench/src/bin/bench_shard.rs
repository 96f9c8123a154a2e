//! Scaling curve of the sharded CDS engine (`pacds-shard`).
//!
//! For each size in `PACDS_BENCH_SIZES` (default `10000,100000,1000000`)
//! the binary places a constant-density unit-disk instance and runs
//! [`pacds_bench::shard::run`] — the driver behind `pacds shard` — at:
//!
//! * every thread count in `PACDS_BENCH_THREADS` (default `1,2,4,8`;
//!   1 is always included: it is the reference every identity check is
//!   computed against), then an all-cores run — the
//!   full partition → halo build → per-tile solve → ownership merge
//!   path, straight from the points;
//! * at threads = 1, the whole-graph `CdsWorkspace` check where its
//!   dense `O(n²)`-bit bitmap fits (`n ≤`
//!   [`WHOLE_GRAPH_LIMIT`](pacds_bench::shard::WHOLE_GRAPH_LIMIT)).
//!
//! Every sharded run is required bit-identical to the threads = 1 run,
//! and that one to the whole graph where it ran: the speedup columns are
//! only meaningful if all sides answer the same question.
//!
//! Writes `BENCH_shard.json` (override: `PACDS_BENCH_OUT`). Each result
//! carries a `scaling` table of per-thread-count rows with the
//! work-distribution counters (`tiles_per_thread`, `busy_ns_per_thread`,
//! `stolen_tiles`) — the portable evidence that the parallel path
//! distributes work, since wall clock depends on `machine_threads`.
//! Exits non-zero on identity failure or a degenerate result.

use pacds_bench::row::{self, Row};
use pacds_bench::shard::{self, ShardParams, WHOLE_GRAPH_LIMIT};
use pacds_bench::{density_side, identical, spread_energy, verdicts, Error, Instance};
use pacds_core::{CdsConfig, Policy};
use pacds_shard::ShardSpec;
use rand::SeedableRng;
use std::process::ExitCode;

const RADIUS: f64 = 25.0;
const SIZES: [usize; 3] = [10_000, 100_000, 1_000_000];
const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Repetitions scale down with size; minima are reported.
fn reps(n: usize) -> usize {
    match n {
        1_000_000.. => 1,
        100_000.. => 2,
        _ => 3,
    }
}

fn main() -> ExitCode {
    pacds_bench::exit(bench())
}

fn bench() -> Result<(), Error> {
    let mut counts = pacds_bench::list_env("PACDS_BENCH_THREADS", &THREADS);
    if counts.contains(&0) {
        return Err("PACDS_BENCH_THREADS: thread counts must be >= 1".into());
    }
    counts.retain(|&t| t != 1);
    let mut rows = Vec::new();
    for n in pacds_bench::list_env("PACDS_BENCH_SIZES", &SIZES) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let inst = Instance::uniform(&mut rng, density_side(n), RADIUS, spread_energy(n, 0));
        let params = |threads, check| ShardParams {
            spec: ShardSpec {
                threads,
                ..ShardSpec::auto()
            },
            cfg: CdsConfig::policy(Policy::EnergyDegree),
            reps: reps(n),
            check,
            expect_workers: 0,
        };
        // threads = 1 is the reference every other run must match.
        let (single, inline) = shard::run(&inst, &params(1, true), &mut std::io::stdout())?;
        if n > 0 && single.num("gateways") == 0.0 {
            return Err(format!("n={n} produced an empty gateway set").into());
        }
        let mut scaling = vec![single.clone()];
        // 0 threads: the "use the whole machine" shape the serving layer
        // would pick, reported apart from the scaling table.
        for t in counts.iter().copied().chain([0]) {
            let (run, engine) = shard::run(&inst, &params(t, false), &mut std::io::stdout())?;
            identical(
                &format!("n={n} threads={t} vs threads=1"),
                verdicts!(engine),
                verdicts!(inline),
            )?;
            scaling.push(run);
        }
        let all_cores = scaling.pop().expect("the all-cores run");
        rows.push(
            single
                .clone()
                .fixed("sharded_ns", single.num("ns"), 0)
                .fixed("sharded_all_cores_ns", all_cores.num("ns"), 0)
                .with("scaling", scaling),
        );
    }

    let description = format!(
        "pacds-shard spatial engine on constant-density unit-disk instances (radius 25, \
         ~19.6 expected neighbours), EnergyDegree policy, simultaneous single-pass \
         min-of-three semantics; minimum over repetitions; whole-graph CdsWorkspace \
         baseline where its dense n^2-bit bitmap fits (n <= {WHOLE_GRAPH_LIMIT}), with \
         asserted bit-identity. whole_graph_ns and speedup_vs_whole_graph are null (never \
         omitted) when the baseline did not run. Schema: each result's scaling[] row is one \
         thread count; its per-phase *_ns fields sum executor CPU time (not wall time, which \
         is the row's ns); stolen_tiles counts tiles an executor claimed from another \
         executor's stripe of the size-ordered schedule; tiles_per_thread / \
         busy_ns_per_thread are indexed by executor id (0 = the calling thread) — work \
         distribution is the machine-independent evidence of parallelism, wall-clock \
         speedup depends on machine_threads"
    );
    let text = row::file(
        "shard_scaling",
        &description,
        "ns/compute",
        Row::new(),
        rows,
    );
    row::write(&pacds_bench::bench_out("BENCH_shard.json"), &text)
}
