//! Incremental churn on the sharded CDS engine (`pacds-shard`'s
//! `ChurnEngine`).
//!
//! For each size in `PACDS_BENCH_SIZES` (default `10000,100000,1000000`)
//! the binary places a constant-density unit-disk instance and runs
//! [`pacds_bench::churn::run`] — the driver behind `pacds churn` — for
//! [`STEPS`] churn steps of [`EVENTS`] mixed events each (mobility hops,
//! battery drains, host deaths and arrivals), one incremental refresh per
//! step. It measures:
//!
//! * **events/s** over the whole applied-and-refreshed stream,
//! * **re-solved tiles per step** against the total tile count — the
//!   headline locality claim: a churn step at `n = 10⁶` re-solves a few
//!   dozen of the engine's 10⁴ derived tiles, not all of them,
//! * **gateway churn per event** (verdict flips / events),
//! * the **from-scratch baseline** (`ShardedCds::compute_unit_disk` on
//!   the same instance) a non-incremental server would pay per step.
//!
//! After the stream, the final incremental state is required
//! **bit-identical** to a from-scratch masked recompute over the live
//! topology — the speedup column is only meaningful if both sides answer
//! the same question. Exits non-zero on divergence.
//!
//! Writes `BENCH_churn.json` (override: `PACDS_BENCH_OUT`).

use pacds_bench::churn::{self, ChurnParams};
use pacds_bench::row::{self, Row};
use pacds_bench::{density_side, spread_energy, Error, Instance};
use pacds_core::{CdsConfig, Policy};
use pacds_shard::ShardSpec;
use rand::SeedableRng;
use std::process::ExitCode;

const RADIUS: f64 = 25.0;
const SIZES: [usize; 3] = [10_000, 100_000, 1_000_000];
const STEPS: usize = 25;
const EVENTS: usize = 8;

fn main() -> ExitCode {
    pacds_bench::exit(bench())
}

fn bench() -> Result<(), Error> {
    let params = ChurnParams {
        spec: ShardSpec::all_cores(),
        cfg: CdsConfig::policy(Policy::EnergyDegree),
        steps: STEPS,
        events: EVENTS,
        check_every_step: false,
        max_resolved_frac: 1.0,
    };
    let mut rows = Vec::new();
    for n in pacds_bench::list_env("PACDS_BENCH_SIZES", &SIZES) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let inst = Instance::uniform(&mut rng, density_side(n), RADIUS, spread_energy(n, 1));
        rows.push(churn::run(
            &inst,
            &params,
            &mut rng,
            &mut std::io::stdout(),
        )?);
    }

    let description = format!(
        "pacds-shard ChurnEngine on constant-density unit-disk instances (radius 25, ~19.6 \
         expected neighbours), EnergyDegree policy: {STEPS} steps of {EVENTS} mixed events \
         (70% mobility hop, 20% battery drain, 6% death, 4% arrival) with one incremental \
         refresh per step, final state asserted bit-identical to a from-scratch masked \
         recompute. Schema per result: open_ns is the engine open (includes the seed solve); \
         scratch_solve_ns is a fresh ShardedCds full solve on the same instance — the \
         per-step cost of not being incremental; mean/max_step_ns time apply+refresh of one \
         whole step, and mean_step_halo_build_ns the part of it spent gathering tile \
         windows and building their subgraphs (summed over worker threads); \
         resolved_tiles_per_step vs tiles is the locality headline (a handful \
         re-solved, not all); gateway_flips_per_event is the churn a routing layer absorbs; \
         speedup_vs_scratch = scratch_solve_ns / mean_step_ns. Wall times depend on \
         machine_threads"
    );
    let text = row::file(
        "churn_incremental",
        &description,
        "ns/step",
        Row::new(),
        rows,
    );
    row::write(&pacds_bench::bench_out("BENCH_churn.json"), &text)
}
