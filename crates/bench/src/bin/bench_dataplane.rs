//! Packet forwarding over the CDS backbone (`pacds-dataplane`).
//!
//! For each size in `PACDS_BENCH_SIZES` (default `100000,1000000`) the
//! binary places a constant-density unit-disk instance and runs
//! [`pacds_bench::dataplane::run`] — the driver behind `pacds dataplane`
//! — with [`FLOWS`] routable unicast flows and at least [`WAVES`] timed
//! waves of [`PACKETS`] packets per flow after a warm wave, more until
//! [`MIN_TIMED_S`](pacds_bench::dataplane::MIN_TIMED_S) has passed (the
//! row's `timed_waves`). It measures:
//!
//! * **hops/s** — aggregate per-hop forwarding operations per second over
//!   the timed waves, gated at [`MIN_HOPS_PER_S`],
//! * **path stretch** — routed hop count vs a true shortest-path BFS on
//!   [`STRETCH_PAIRS`] sampled flows,
//! * **broadcast reduction** — gateway-relayed vs blind flood
//!   transmissions from the same source, gated at
//!   [`MIN_FLOOD_REDUCTION`],
//! * **kill → reroute** — one gateway on an active route is killed; the
//!   stale wave must NACK (never deliver into the dead node), and the
//!   refresh → reinstall → retransmit → redelivery sequence is timed end
//!   to end. `adjacency_ns` is the part of the refresh the churn engine
//!   does not account for: the dataplane's adjacency upkeep. The engine's
//!   times are summed over its pool workers, so the engine runs one pool
//!   thread (as in perfbench's churn-reroute) to keep that difference
//!   exact. The reroute must repair at least one destination tree and
//!   rebuild none (`trees_repaired`, `trees_rebuilt`): a deterministic
//!   count, so the check holds at every size.
//!
//! The `misroutes` counter — packets forwarded into a dead node — must
//! be zero at exit; this is the structural NACK guarantee, not a
//! statistical observation. Exits non-zero on any gate failure.
//!
//! Writes `BENCH_dataplane.json` (override: `PACDS_BENCH_OUT`).

use pacds_bench::dataplane::{self, DpParams, MIN_TIMED_S};
use pacds_bench::row::{self, Row};
use pacds_bench::{density_side, spread_energy, Error, Instance};
use pacds_core::{CdsConfig, Policy};
use pacds_shard::ShardSpec;
use rand::SeedableRng;
use std::process::ExitCode;

// Denser than bench_churn's radius-25 regime (~28.3 vs ~19.6 expected
// neighbours): the paper's ≈70% broadcast-saving claim is made for dense
// networks, where the Degree-rule backbone covers a smaller host fraction.
const RADIUS: f64 = 30.0;
const SIZES: [usize; 2] = [100_000, 1_000_000];
const FLOWS: usize = 256;
const PACKETS: usize = 32;
const WAVES: usize = 20;
const STRETCH_PAIRS: usize = 32;
const MIN_HOPS_PER_S: f64 = 1e6;
const MIN_FLOOD_REDUCTION: f64 = 0.60;

fn main() -> ExitCode {
    pacds_bench::exit(bench())
}

fn bench() -> Result<(), Error> {
    let params = DpParams {
        spec: ShardSpec {
            threads: 1,
            ..ShardSpec::all_cores()
        },
        // Degree rule: the smallest backbone of the paper's tie-break
        // rules, hence the strongest broadcast-reduction case.
        cfg: CdsConfig::policy(Policy::Degree),
        flows: FLOWS,
        packets: PACKETS,
        waves: WAVES,
        kill_every: 0,
        broadcast: (false, false),
        stretch_pairs: STRETCH_PAIRS,
        drill: true,
        min_hops_per_s: MIN_HOPS_PER_S,
        min_flood_reduction: MIN_FLOOD_REDUCTION,
        fail_on_errors: true,
    };
    let mut rows = Vec::new();
    for n in pacds_bench::list_env("PACDS_BENCH_SIZES", &SIZES) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let inst = Instance::uniform(&mut rng, density_side(n), RADIUS, spread_energy(n, 1));
        let row = dataplane::run(&inst, &params, &mut rng, &mut std::io::stdout())
            .map_err(|e| format!("n={n}: {e}"))?;
        rows.push(row);
    }

    let description = format!(
        "pacds-dataplane vector-dispatch forwarding engine on constant-density unit-disk \
         instances (radius 30, ~28.3 expected neighbours), Degree-rule backbone: {FLOWS} \
         unicast flows x {PACKETS} packets x at least {WAVES} timed waves (timed_waves: \
         more until {MIN_TIMED_S} s have passed) with routes cached after a warm wave. Schema per result: hops_per_s counts per-hop forwarding operations (the \
         aggregate rate the >=1e6 gate applies to); stretch_* compare routed hop counts to a \
         shortest-path BFS oracle on sampled flows; flood_reduction = 1 - gateway/blind \
         transmissions from the same source at full coverage; kill_* time the gateway-death \
         NACK -> churn refresh -> table reinstall -> retransmit -> redelivery sequence end to \
         end (reroute_ns includes refresh_ns; adjacency_ns is refresh_ns minus the churn \
         engine's halo + solve + scatter time, i.e. the adjacency upkeep, exact because the \
         engine runs one pool thread; trees_rebuilt / trees_repaired count the destination \
         trees the reroute built in full / repaired in place); misroutes counts packets \
         forwarded into a dead node and is asserted zero — the structural liveness-check \
         guarantee. Wall times depend on machine_threads"
    );
    let text = row::file(
        "dataplane_forwarding",
        &description,
        "hops/s",
        Row::new(),
        rows,
    );
    row::write(&pacds_bench::bench_out("BENCH_dataplane.json"), &text)
}
