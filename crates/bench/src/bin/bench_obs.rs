//! Pins the overhead of the `pacds-obs` instrumentation layer.
//!
//! The same binary is run twice over the identical workload (the
//! `BENCH_workspace.json` reuse hot path: mobility step + in-place CSR
//! rebuild + `CdsWorkspace` CDS + verification):
//!
//! 1. **without** `--features obs` — instrumentation compiled out — it
//!    writes the baseline timings to [`BASELINE`];
//! 2. **with** `--features obs` (or `obs,trace`) — it re-times the
//!    workload, reads the baseline, writes the merged `BENCH_obs.json`
//!    artifact (`PACDS_BENCH_OUT`), and **exits non-zero** if the
//!    instrumented build is more than [`MAX_PCT`] percent slower at any
//!    n ≥ 1000.
//!
//! Four hot paths are gated: the whole-graph reuse loop, the sharded
//! engine, the incremental churn engine, and the dataplane forwarding
//! loop (`Dataplane::pump` over cached routes). When the instrumented build
//! also compiles the `trace` feature in, span sampling is switched on
//! (1/[`TRACE_SAMPLE`]) for the measurement, so the gate covers tracing
//! as deployed, not just dormant counters.
//!
//! Per-size timings take the minimum of several repetitions — wall-clock
//! minima are far more stable than means under scheduler noise, which
//! matters when the acceptance band is single-digit percent.
//!
//! Both files go through [`pacds_bench::row`]; the baseline is re-read
//! by key.

use pacds_bench::row::{self, Row};
use pacds_bench::{time_ns, Error, Interval};
use pacds_core::{CdsConfig, CdsWorkspace, Policy};
use pacds_geom::Point2;
use pacds_graph::{gen, Graph};
use pacds_shard::{ChurnEngine, ChurnEvent, ShardSpec, ShardedCds};
use std::hint::black_box;
use std::process::ExitCode;

const RADIUS: f64 = 25.0;
/// Where the uninstrumented run leaves its timings for the instrumented
/// run to compare against.
const BASELINE: &str = "BENCH_obs_baseline.json";
/// The overhead gate, percent, at n ≥ 1000.
const MAX_PCT: f64 = 3.0;
const SIZES: [usize; 3] = [100, 1000, 10000];
/// Sizes for the sharded-engine hot path (`pacds-shard`), gated the same
/// way: the shard phase timers and counters must also be ≤ 3% overhead.
const SHARD_SIZES: [usize; 2] = [1000, 10000];
/// Sizes for the incremental churn hot path (`ChurnEngine::step`).
const CHURN_SIZES: [usize; 2] = [1000, 10000];
/// Sizes for the dataplane forwarding hot path (`Dataplane::pump` on
/// cached routes — the per-pump `obs_time!`/`obs_count!` flush plus the
/// per-pump span must stay inside the same ≤ 3% band).
const DP_SIZES: [usize; 2] = [1000, 10000];
/// Span sampling rate used for the instrumented run of a `trace` build:
/// every 64th churn step / sharded compute carries a recording trace id.
const TRACE_SAMPLE: u64 = 64;
/// Many *short* repetitions, minimum taken: on a small shared machine,
/// contention arrives in multi-second bursts, so a 75–125 ms measurement
/// window that can dodge the burst beats a long window that averages it
/// in. The window length is set by `iters` in [`best_of_reps`].
const REPS: usize = 20;

/// Minimum over [`REPS`] fresh intervals at size `n` of `timed(interval,
/// iters)`, a mean over `iters` runs of one hot path.
fn best_of_reps(n: usize, mut timed: impl FnMut(Interval, usize) -> f64) -> f64 {
    let iters = (50_000 / n).clamp(4, 400);
    (0..REPS)
        .map(|rep| timed(Interval::new(n, 42 + rep as u64), iters))
        .fold(f64::INFINITY, f64::min)
}

fn energy_degree() -> CdsConfig {
    CdsConfig::policy(Policy::EnergyDegree)
}

/// The inline single-thread engine shape of the shard and churn paths.
fn inline() -> ShardSpec {
    ShardSpec {
        threads: 1,
        ..ShardSpec::auto()
    }
}

/// The reuse hot path: mobility step + in-place CSR rebuild + CDS +
/// verification.
fn measure(n: usize) -> f64 {
    best_of_reps(n, |mut iv, iters| {
        let (mut csr, mut scratch) = (Graph::default(), gen::UnitDiskScratch::new());
        let (mut ws, cfg) = (CdsWorkspace::with_capacity(n), energy_degree());
        time_ns(2, iters, || {
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
            black_box(ws.gateway_count());
        })
    })
}

/// The sharded hot path: mobility step + `ShardedCds::compute_unit_disk`
/// on a retained engine (inline single thread, shard count scaled with
/// `n`).
fn measure_shard(n: usize) -> f64 {
    best_of_reps(n, |mut iv, iters| {
        let mut engine = ShardedCds::new(inline()).expect("default halo is legal");
        let cfg = energy_degree();
        time_ns(2, iters, || {
            iv.step();
            engine.set_trace(pacds_obs::next_trace_id());
            engine
                .compute_unit_disk(iv.bounds, RADIUS, &iv.positions, Some(&iv.energy), &cfg)
                .expect("benchmark config is shardable");
            black_box(engine.gateway_count());
        })
    })
}

/// The churn hot path: a deterministic batch of mobility events through a
/// retained `ChurnEngine` (inline single thread; only the dirtied tiles
/// re-solve).
fn measure_churn(n: usize) -> f64 {
    let batch = (n / 100).max(4);
    best_of_reps(n, |iv, iters| {
        // The churn engine treats energy 0 as exhausted; keep every host up.
        let energy: Vec<u64> = iv.energy.iter().map(|&e| e.max(1)).collect();
        let (bounds, points) = (iv.bounds, &iv.positions);
        let mut engine =
            ChurnEngine::open(inline(), bounds, RADIUS, points, &energy, &energy_degree())
                .expect("benchmark config is shardable");
        let mut step = 0u64;
        time_ns(2, iters, || {
            // Small deterministic hops for a rotating subset of hosts.
            let events: Vec<ChurnEvent> = (0..batch as u64)
                .map(|k| {
                    let node = ((step * 31 + k * 97) % n as u64) as u32;
                    let p = engine.positions()[node as usize];
                    let f = ((step * 61 + k * 13) % 997) as f64 / 997.0 - 0.5;
                    let to = Point2::new(
                        (p.x + f * RADIUS).clamp(bounds.x0, bounds.x1),
                        (p.y - f * RADIUS).clamp(bounds.y0, bounds.y1),
                    );
                    ChurnEvent::MoveNode { node, to }
                })
                .collect();
            engine.set_trace(pacds_obs::next_trace_id());
            engine.step(&events).expect("typed-valid event batch");
            black_box(engine.gateway_count());
            step += 1;
        })
    })
}

/// The dataplane forwarding hot path: a wave of packets over cached
/// source routes through `Dataplane::pump` (inject → lookup hit →
/// forward → egress, then the wholesale batch reset). The backbone is
/// static here — churn overhead is `measure_churn`'s job; this isolates
/// the per-packet engine cost.
fn measure_dataplane(n: usize) -> f64 {
    const FLOWS: usize = 64;
    const PACKETS: usize = 32;
    best_of_reps(n, |iv, iters| {
        let (mut csr, mut scratch) = (Graph::default(), gen::UnitDiskScratch::new());
        gen::unit_disk_csr(
            iv.bounds,
            RADIUS,
            &iv.positions,
            None,
            &mut csr,
            &mut scratch,
        );
        let mut ws = CdsWorkspace::with_capacity(n);
        ws.compute(&csr, Some(&iv.energy), &energy_degree());
        let alive = vec![true; n];
        let mut dp = pacds_dataplane::Dataplane::new();
        dp.install_tables(ws.gateways(), &alive);
        let mut probe = Vec::new();
        let mut flow_ids = Vec::with_capacity(FLOWS);
        for k in 0u32.. {
            if flow_ids.len() == FLOWS {
                break;
            }
            let s = (k.wrapping_mul(131).wrapping_add(17)) % n as u32;
            let t = (k.wrapping_mul(197).wrapping_add(5)) % n as u32;
            if s != t && dp.routes_mut().assemble(&csr, s, t, &mut probe).is_ok() {
                flow_ids.push(dp.add_flow(s, t)); // else off-backbone or disconnected
            }
        }
        time_ns(2, iters, || {
            dp.set_trace(pacds_obs::next_trace_id());
            for &f in &flow_ids {
                dp.inject(f, PACKETS);
            }
            black_box(dp.pump(&csr, &alive));
            dp.reset_packets();
        })
    })
}

/// Extracts `"key": <number>` occurrences from hand-written JSON `text`.
fn extract_numbers(text: &str, key: &str) -> Vec<f64> {
    let needle = format!("\"{key}\":");
    let mut out = Vec::new();
    for chunk in text.split(&needle).skip(1) {
        let num: String = chunk
            .trim_start()
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
            .collect();
        if let Ok(v) = num.parse() {
            out.push(v);
        }
    }
    out
}

/// One gated hot path: its sizes, its timer, and the keys its rows use
/// in both files.
struct HotPath {
    /// The list the rows go in, and the keys of a row's `n` and time.
    list: &'static str,
    n_key: &'static str,
    ns_key: &'static str,
    label: &'static str,
    sizes: &'static [usize],
    measure: fn(usize) -> f64,
}

/// `results` is the file's own list; the other paths ride as extras.
const PATHS: [HotPath; 4] = [
    HotPath {
        list: "results",
        n_key: "n",
        ns_key: "ns_per_interval",
        label: "",
        sizes: &SIZES,
        measure,
    },
    HotPath {
        list: "shard_results",
        n_key: "shard_n",
        ns_key: "shard_ns_per_interval",
        label: " (sharded)",
        sizes: &SHARD_SIZES,
        measure: measure_shard,
    },
    HotPath {
        list: "churn_results",
        n_key: "churn_n",
        ns_key: "churn_ns_per_step",
        label: " (churn)",
        sizes: &CHURN_SIZES,
        measure: measure_churn,
    },
    HotPath {
        list: "dp_results",
        n_key: "dp_n",
        ns_key: "dp_ns_per_wave",
        label: " (dataplane)",
        sizes: &DP_SIZES,
        measure: measure_dataplane,
    },
];

const DESCRIPTION: &str = "BENCH_workspace reuse hot path (mobility step + in-place CSR \
    rebuild + CdsWorkspace CDS + verification), the sharded-engine hot path (mobility step + \
    ShardedCds::compute_unit_disk), the incremental churn hot path (ChurnEngine::step on a \
    mobility event batch) and the dataplane forwarding hot path (Dataplane::pump over cached \
    routes), timed with pacds-obs compiled out vs enabled";

/// Writes a file whose `results` are the first path's rows and whose
/// other paths' rows follow `extra`.
fn write_file(path: &str, extra: Row, mut lists: Vec<Vec<Row>>) -> Result<(), Error> {
    let results = lists.remove(0);
    let extra = PATHS[1..]
        .iter()
        .zip(lists)
        .fold(extra, |row, (p, rows)| row.with(p.list, rows));
    let description = format!("{DESCRIPTION}; minimum of {REPS} repetitions per size");
    row::write(
        path,
        &row::file("obs_overhead", &description, "ns/interval", extra, results),
    )
}

fn run_baseline() -> Result<(), Error> {
    let lists = PATHS
        .iter()
        .map(|p| {
            p.sizes
                .iter()
                .map(|&n| {
                    let ns = (p.measure)(n);
                    println!("n={n:>6}  baseline {ns:>12.0} ns{}", p.label);
                    Row::new().with(p.n_key, n).fixed(p.ns_key, ns, 0)
                })
                .collect()
        })
        .collect();
    write_file(BASELINE, Row::new().with("mode", "baseline"), lists)?;
    eprintln!("now run with --features obs to compare");
    Ok(())
}

fn run_instrumented() -> Result<(), Error> {
    let text = std::fs::read_to_string(BASELINE).map_err(|e| {
        format!(
            "cannot read baseline {BASELINE}: {e}\nrun this binary once WITHOUT --features \
             obs first"
        )
    })?;
    // The keys are distinct whole words ("n" never matches inside
    // "shard_n"), so plain extraction stays exact.
    let mut bases = Vec::new();
    for p in &PATHS {
        let base_ns = extract_numbers(&text, p.ns_key);
        let base_n = extract_numbers(&text, p.n_key);
        if base_ns.len() != p.sizes.len()
            || base_n
                .iter()
                .map(|&v| v as usize)
                .ne(p.sizes.iter().copied())
        {
            return Err(format!(
                "baseline {BASELINE} does not cover{} sizes {:?}; re-run the baseline binary \
                 (without --features obs)",
                p.label, p.sizes
            )
            .into());
        }
        bases.push(base_ns);
    }

    pacds_obs::reset();
    // A trace build is gated with sampling ON: the deployment-realistic
    // cost is "counters + every 64th request carrying spans", not a
    // dormant ring.
    if pacds_obs::trace_enabled() {
        pacds_obs::set_sampling(TRACE_SAMPLE);
    }
    let mut gate_failed = false;
    let mut lists = Vec::new();
    for (p, base_ns) in PATHS.iter().zip(&bases) {
        let mut rows = Vec::new();
        for (&n, &base) in p.sizes.iter().zip(base_ns) {
            let gated = n >= 1000;
            // Scheduler noise is one-sided (it only ever adds time), so
            // a minimum that trips the gate is re-measured and
            // min-combined a couple of times before the failure is
            // believed.
            let mut ns = (p.measure)(n);
            for _ in 0..2 {
                if !(gated && 100.0 * (ns - base) / base > MAX_PCT) {
                    break;
                }
                ns = ns.min((p.measure)(n));
            }
            let overhead = 100.0 * (ns - base) / base;
            gate_failed |= gated && overhead > MAX_PCT;
            println!(
                "n={n:>6}  baseline {base:>12.0}  instrumented {ns:>12.0}  \
                 overhead {overhead:>+6.2}%{}{}",
                p.label,
                if gated { "  [gated]" } else { "" }
            );
            rows.push(
                Row::new()
                    .with(p.n_key, n)
                    .fixed("baseline_ns_per_interval", base, 0)
                    .fixed("instrumented_ns_per_interval", ns, 0)
                    .fixed("overhead_pct", overhead, 2),
            );
        }
        lists.push(rows);
    }

    // Prove the instrumented run actually recorded something: a ≤ 3%
    // number for a build where the counters silently compiled out would
    // be meaningless.
    let snap = pacds_obs::Snapshot::capture();
    let mut extra = Row::new()
        .with("max_overhead_pct_gate", MAX_PCT)
        .with("gated_sizes", "n >= 1000")
        .with("trace_enabled", pacds_obs::trace_enabled())
        .with(
            "trace_sample",
            if pacds_obs::trace_enabled() {
                TRACE_SAMPLE
            } else {
                0
            },
        )
        .with("instrumented_trace_spans", snap.counter("trace.spans"));
    if pacds_obs::trace_enabled() && snap.counter("trace.spans") == 0 {
        return Err(format!("trace build with sampling 1/{TRACE_SAMPLE} recorded no spans").into());
    }
    for (key, counter) in [
        ("instrumented_workspace_computes", "workspace.computes"),
        ("instrumented_shard_computes", "shard.computes"),
        ("instrumented_churn_refreshes", "churn.refreshes"),
        ("instrumented_dp_forwarded", "dp.forwarded"),
    ] {
        let value = snap.counter(counter);
        if value == 0 {
            return Err(format!("instrumented build recorded no {counter}").into());
        }
        extra = extra.with(key, value);
    }
    write_file(&pacds_bench::bench_out("BENCH_obs.json"), extra, lists)?;
    if gate_failed {
        return Err(format!("instrumentation overhead exceeds {MAX_PCT}% at n >= 1000").into());
    }
    Ok(())
}

fn main() -> ExitCode {
    pacds_bench::exit(match pacds_obs::enabled() {
        true => run_instrumented(),
        false => run_baseline(),
    })
}
