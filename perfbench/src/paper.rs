//! `paper-lifetime`: the paper's Fig. 12/13 lifetime experiment.
//!
//! Back-to-back `NetworkState` trials at n = 100 in the 100×100 arena with
//! radius 25, each from init to the first host death. Trial `k` runs the
//! paper's policy `k mod 4` (ID, ND, EL1, EL2) under drain model
//! `(k / 4) mod 3 + 1`. Each interval runs the same steps as
//! `Simulation::run_lifetime`: connectivity check, gateway computation,
//! verification, drain and mobility. Every connected interval is verified,
//! and every `CHECK_EVERY`-th interval is recomputed with the allocating
//! `pacds_core::compute_cds` pipeline and must match bit for bit.
//!
//! End-to-end slots: `ops_per_s` = update intervals per second
//! (`sim.intervals_per_s`), `update_ms` = one interval, `scratch_ms` = the
//! from-scratch gateway computation, `response_ms` = a fresh network's
//! init plus its first verified gateway set.

use crate::metrics::Outcome;
use crate::stats::{tail, Rate, Samples};
use crate::trace::{Tracer, CHECK};
use crate::Opts;
use pacds_core::{compute_cds, CdsConfig, CdsInput, Policy};
use pacds_energy::DrainModel;
use pacds_graph::{algo, VertexMask};
use pacds_sim::{NetworkState, SimConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

pub const N: usize = 100;
const POLICIES: [Policy; 4] = [
    Policy::Id,
    Policy::Degree,
    Policy::Energy,
    Policy::EnergyDegree,
];
const MODELS: [DrainModel; 3] = [
    DrainModel::ConstantTotal,
    DrainModel::LinearInN,
    DrainModel::QuadraticInN,
];
/// Trials in one policy × model cycle.
pub const CYCLE: u64 = 12;
/// Trial networks placed per set-up repetition.
const SETUP_TRIALS: u64 = 20 * CYCLE;
const SETUP_REPS: usize = 5;
/// Every this many intervals, the gateway set is recomputed by the
/// reference pipeline.
pub const CHECK_EVERY: u64 = 16;
/// Intervals an untraced run measures at least (fixes the tail percentile).
pub const MIN_INTERVALS: usize = 500;
/// Intervals per rate block; `sim.intervals_per_s` is the median block's.
const BLOCK_INTERVALS: u64 = 1000;

pub fn config(trial: u64) -> SimConfig {
    SimConfig::paper(
        N,
        POLICIES[(trial % 4) as usize],
        MODELS[((trial / 4) % 3) as usize],
    )
}

pub fn trial_rng(seed: u64, trial: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ trial)
}

/// The paper-literal `compute_cds` pipeline, run on the interval's graph
/// and energy levels, yields exactly `gw`.
pub fn pipeline_agrees(st: &NetworkState, cfg: &CdsConfig, gw: &[bool]) -> bool {
    let levels = st.fleet().levels();
    compute_cds(&CdsInput::with_energy(st.graph(), &levels), cfg) == gw
}

/// One measured pass over consecutive trials.
#[derive(Debug, Default)]
pub struct Pass {
    pub intervals: u64,
    /// Whole-interval time, ms (check excluded).
    pub interval_ms: Samples,
    /// `compute_gateways_into`, ms.
    pub cds_ms: Samples,
    /// Init plus the first interval's verified gateway set, ms.
    pub deploy_ms: Samples,
    /// Interval rate of untraced and traced trials, indexed by whether the
    /// trial was traced.
    pub by_trace: [Rate; 2],
    /// Intervals per second of each block of `BLOCK_INTERVALS` intervals.
    pub block_rates: Samples,
    /// Per completed trial of the first cycle: (lifetime, mean gateways).
    pub first_cycle: Vec<(u32, f64)>,
    pub checks: u64,
    pub failed: u64,
}

impl Pass {
    /// The median block's rate: robust to the machine pausing the process
    /// for part of the run.
    pub fn intervals_per_s(&self) -> f64 {
        self.block_rates.p50()
    }
}

/// Runs trials until `budget` has passed and at least `min_intervals`
/// intervals are measured. The first cycle of trials always runs to
/// completion. With `alternate`, every odd cycle of trials is traced and
/// the pass ends on a whole pair of cycles, so traced and untraced trials
/// cover the same policy × drain-model mix.
pub fn run_pass(
    seed: u64,
    budget: Duration,
    min_intervals: usize,
    alternate: bool,
    tr: &mut Tracer,
) -> Pass {
    let start = Instant::now();
    let mut pass = Pass::default();
    let mut gw = VertexMask::new();
    let mut trial = 0;
    let mut block = Rate::default();
    let boundary = if alternate { 2 * CYCLE } else { 1 };
    let done = |pass: &Pass, trial: u64| {
        trial >= CYCLE
            && trial.is_multiple_of(boundary)
            && start.elapsed() >= budget
            && pass.interval_ms.len() >= min_intervals
    };
    while !done(&pass, trial) {
        let cfg = config(trial);
        let mut rng = trial_rng(seed, trial);
        if alternate {
            tr.set_on((trial / CYCLE) % 2 == 1);
        }
        let traced = usize::from(tr.on());
        let root = tr.open(0, "sim", "trial");
        let t = Instant::now();
        let mut st = tr.time(root, "sim", "init", || NetworkState::init(cfg, &mut rng));
        let init = t.elapsed();
        let (mut intervals, mut gateways) = (0u32, 0u64);
        let mut died = false;
        while intervals < cfg.max_intervals {
            let t = Instant::now();
            let connected = tr.time(root, "graph", "is_connected", || {
                algo::is_connected(st.graph())
            });
            let tc = Instant::now();
            tr.time(root, "core", "compute_gateways_into", || {
                st.compute_gateways_into(&mut gw)
            });
            let cds = tc.elapsed();
            let verified = !connected
                || tr
                    .time(root, "core", "verify_gateways", || st.verify_gateways(&gw))
                    .is_ok();
            let mut busy = t.elapsed();
            if intervals == 0 {
                pass.deploy_ms.push((init + busy).as_secs_f64() * 1e3);
            }

            // Outside the timed window: violations and the reference check.
            pass.checks += 1;
            if !verified {
                pass.failed += 1;
            }
            if pass.intervals % CHECK_EVERY == 0 {
                let ok = tr.time(root, CHECK, "pipeline", || {
                    pipeline_agrees(&st, &cfg.cds, &gw)
                });
                pass.checks += 1;
                if !ok {
                    pass.failed += 1;
                }
            }
            gateways += gw.iter().filter(|&&b| b).count() as u64;

            let t = Instant::now();
            let deaths = tr.time(root, "energy", "drain", || st.drain(&gw));
            if deaths.is_empty() {
                tr.time(root, "sim", "advance_topology", || {
                    st.advance_topology(&mut rng)
                });
            }
            busy += t.elapsed();
            intervals += 1;
            pass.intervals += 1;
            pass.by_trace[traced].add(1, busy.as_nanos());
            block.add(1, busy.as_nanos());
            if block.ops == BLOCK_INTERVALS {
                pass.block_rates.push(block.per_s());
                block = Rate::default();
            }
            pass.interval_ms.push(busy.as_secs_f64() * 1e3);
            pass.cds_ms.push(cds.as_secs_f64() * 1e3);
            if !deaths.is_empty() {
                died = true;
                break;
            }
            if !alternate && done(&pass, trial) {
                break;
            }
        }
        tr.close(root);
        if trial < CYCLE && (died || intervals == cfg.max_intervals) {
            pass.first_cycle
                .push((intervals, gateways as f64 / f64::from(intervals.max(1))));
        }
        trial += 1;
    }
    pass
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let mut out = Outcome::default();

    // Set-up: place the first trial networks, several times.
    let mut setup = Samples::default();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let states: Vec<NetworkState> = (0..SETUP_TRIALS)
            .map(|k| NetworkState::init(config(k), &mut trial_rng(opts.seed, k)))
            .collect();
        setup.push(t.elapsed().as_secs_f64());
        drop(states);
    }
    out.set("setup_s", setup.p50());

    if !opts.trace {
        let pass = run_pass(
            opts.seed,
            opts.budget(1.0),
            MIN_INTERVALS,
            false,
            &mut Tracer::new(false),
        );
        report_checks(&mut out, &pass)?;
        let t = tail(&pass.interval_ms, MIN_INTERVALS);
        out.set("ops_per_s", pass.intervals_per_s());
        out.set("update_ms.p50", pass.interval_ms.p50());
        out.set("update_ms.tail", t.value);
        out.set("scratch_ms.p50", pass.cds_ms.p50());
        out.set("response_ms.p50", pass.deploy_ms.p50());
        out.note("sim.intervals_per_s", pass.intervals_per_s(), "1/s");
        out.note("sim.interval_ms.p50", pass.interval_ms.p50(), "ms");
        out.note_tail("sim.interval_ms.tail", &t, 1.0, "ms");
        out.note("setup_s", setup.p50(), "s");
        return Ok(out);
    }

    // Traced run: odd cycles traced, even ones not; the difference in
    // intervals/s is the tracing overhead.
    let mut tr = Tracer::new(true);
    let pass = run_pass(opts.seed, opts.budget(1.0), 0, true, &mut tr);
    report_checks(&mut out, &pass)?;

    let us = |name: &str, layer: &str| tr.durations(layer, name, 1e3).p50();
    out.set("sim.init_us.p50", us("init", "sim"));
    out.set("sim.topology_us.p50", us("advance_topology", "sim"));
    out.set("graph.connected_us.p50", us("is_connected", "graph"));
    out.set("core.cds_us.p50", us("compute_gateways_into", "core"));
    out.set("core.verify_us.p50", us("verify_gateways", "core"));
    out.set("energy.drain_us.p50", us("drain", "energy"));
    out.set_self_pct(&tr);

    let [plain, traced] = pass.by_trace;
    let overhead = 100.0 * (plain.per_s() / traced.per_s() - 1.0);
    out.set("trace.overhead_pct", overhead);
    let parts: u64 = [
        ("graph", "is_connected"),
        ("core", "compute_gateways_into"),
        ("core", "verify_gateways"),
        ("energy", "drain"),
        ("sim", "advance_topology"),
    ]
    .iter()
    .map(|(l, n)| tr.total_ns(l, n))
    .sum();
    // The traced trials' layer spans against the untraced trials' interval
    // time: any work outside the spans, or tracer cost, is the residual.
    let per_interval_parts = parts as f64 / traced.ops.max(1) as f64;
    let per_interval = 1e9 / plain.per_s();
    out.set_addup(
        "interval layers (traced trials)",
        per_interval_parts / 1e3,
        "1/sim.intervals_per_s (untraced trials)",
        per_interval / 1e3,
        "us",
    );
    out.note("trace.overhead_pct", overhead, "%");
    out.set_tail_floor(MIN_INTERVALS);
    crate::trace::write_spans(&tr, "paper-lifetime");
    Ok(out)
}

/// Adds a pass's checks and the seed-determined first-cycle means.
fn report_checks(out: &mut Outcome, pass: &Pass) -> Result<(), String> {
    out.attempted += pass.checks;
    out.failed += pass.failed;
    if pass.first_cycle.len() != CYCLE as usize {
        return Err(format!(
            "first cycle completed {} of {CYCLE} trials",
            pass.first_cycle.len()
        ));
    }
    let n = pass.first_cycle.len() as f64;
    let lifetime = pass.first_cycle.iter().map(|c| f64::from(c.0)).sum::<f64>() / n;
    let gateways = pass.first_cycle.iter().map(|c| c.1).sum::<f64>() / n;
    out.set("sim.lifetime_mean", lifetime);
    out.set("core.gateways_mean", gateways);
    out.note("sim.lifetime_mean (first cycle)", lifetime, "intervals");
    out.note("core.gateways_mean (first cycle)", gateways, "hosts");
    Ok(())
}
