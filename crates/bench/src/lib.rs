//! Shared harness for the figure-reproduction and `bench_*` binaries.
//!
//! The figure binaries accept the same environment knobs so CI and quick
//! local runs can scale the work:
//!
//! * `PACDS_TRIALS` — Monte-Carlo trials per point (default 30);
//! * `PACDS_SIZES` — comma-separated network sizes (default `5,10,...,100`);
//! * `PACDS_SEED` — master seed (default `0xC0FFEE`);
//! * `PACDS_OUT` — directory for CSV output (default `results/`).
//!
//! The `bench_*` binaries read three:
//!
//! * `PACDS_BENCH_SIZES` — comma-separated host counts for `bench_shard`,
//!   `bench_churn` and `bench_dataplane` (each has its own default);
//! * `PACDS_BENCH_THREADS` — `bench_shard`'s thread-count list;
//! * `PACDS_BENCH_OUT` — the JSON file a bench writes.
//!
//! The large-scale subsystems each have one driver module here —
//! [`shard`], [`churn`] and [`dataplane`] — which both the `pacds` CLI
//! commands of the same name and the `bench_*` binaries call; [`row`]
//! writes what they return.

pub mod churn;
pub mod dataplane;
pub mod row;
pub mod seed_baseline;
pub mod shard;

use pacds_core::CdsConfig;
use pacds_geom::{Point2, Rect};
use pacds_mobility::{MobilityModel, PaperWalk};
use pacds_sim::experiments::{Series, SweepConfig};
use rand::{Rng, SeedableRng};
use row::Row;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Error type of the drivers: engine errors, identity failures, gates.
pub type Error = Box<dyn std::error::Error>;

/// Arena side for a target density of ~19.6 expected neighbours at
/// radius 25 (the paper's default density), scaled to `n`.
pub fn density_side(n: usize) -> f64 {
    (100.0 * (n as f64 / 100.0).sqrt()).max(1.0)
}

/// The benches' deterministic energy spread: `(i·7919) mod 100 + offset`.
pub fn spread_energy(n: usize, offset: u64) -> Vec<u64> {
    (0..n).map(|i| (i as u64 * 7919) % 100 + offset).collect()
}

/// A unit-disk instance: hosts placed in a square arena, one energy
/// level each.
pub struct Instance {
    pub bounds: Rect,
    pub radius: f64,
    pub points: Vec<Point2>,
    pub energy: Vec<u64>,
}

impl Instance {
    /// `energy.len()` hosts placed uniformly by `rng` on a `side`-wide
    /// square.
    pub fn uniform(rng: &mut impl Rng, side: f64, radius: f64, energy: Vec<u64>) -> Self {
        let bounds = Rect::square(side);
        let points = pacds_geom::placement::uniform_points(rng, bounds, energy.len());
        Self {
            bounds,
            radius,
            points,
            energy,
        }
    }

    pub fn n(&self) -> usize {
        self.points.len()
    }

    pub fn side(&self) -> f64 {
        self.bounds.x1 - self.bounds.x0
    }

    /// `n=… radius=… side=… policy=…`, the head of every summary line.
    pub fn label(&self, cfg: &CdsConfig) -> String {
        let (n, radius, side) = (self.n(), self.radius, self.side());
        format!(
            "n={n} radius={radius} side={side:.1} policy={}",
            cfg.policy.label()
        )
    }
}

/// The instance columns every driver row starts with.
fn meta(inst: &Instance, cfg: &CdsConfig) -> Row {
    Row::new()
        .with("n", inst.n())
        .with("radius", inst.radius)
        .with("side", inst.side())
        .with("policy", cfg.policy.label())
}

/// The three verdict masks of a solve — marking, Rule 1, gateways — of
/// any engine with those accessors.
#[macro_export]
macro_rules! verdicts {
    ($e:expr) => {
        [&$e.marked()[..], &$e.after_rule1()[..], &$e.gateways()[..]]
    };
}

/// The identity gate: two solves' [`verdicts!`] agree bit for bit.
pub fn identical(what: &str, got: [&[bool]; 3], want: [&[bool]; 3]) -> Result<(), Error> {
    match got == want {
        true => Ok(()),
        false => Err(format!("{what}: verdicts diverged").into()),
    }
}

/// Reads a comma-separated list of integers from `name`, else `default`:
/// `PACDS_BENCH_SIZES` (host counts) and `PACDS_BENCH_THREADS` (thread
/// counts) for the `bench_*` binaries, `PACDS_SIZES` for the figures.
pub fn list_env(name: &str, default: &[usize]) -> Vec<usize> {
    match std::env::var(name) {
        Ok(s) => s
            .split(',')
            .map(|t| {
                t.trim()
                    .parse()
                    .unwrap_or_else(|_| panic!("{name}: bad integer '{t}'"))
            })
            .collect(),
        Err(_) => default.to_vec(),
    }
}

/// The output path: `PACDS_BENCH_OUT`, else `default`.
pub fn bench_out(default: &str) -> String {
    std::env::var("PACDS_BENCH_OUT").unwrap_or_else(|_| default.to_string())
}

/// The exit code of a bench: failure, with the error on stderr, when
/// `result` is one.
pub fn exit(result: Result<(), Error>) -> ExitCode {
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One Monte-Carlo interval's state on the bench instance: positions on
/// the density arena, the paper's random walk and the energy spread.
pub struct Interval {
    pub bounds: Rect,
    pub positions: Vec<Point2>,
    pub walk: PaperWalk,
    pub energy: Vec<u64>,
    pub rng: rand::rngs::StdRng,
}

impl Interval {
    pub fn new(n: usize, seed: u64) -> Self {
        let bounds = Rect::square(density_side(n));
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let positions = pacds_geom::placement::uniform_points(&mut rng, bounds, n);
        let energy = spread_energy(n, 0);
        Self {
            bounds,
            positions,
            walk: PaperWalk::paper(),
            energy,
            rng,
        }
    }

    /// One mobility step.
    pub fn step(&mut self) {
        self.walk
            .step(&mut self.rng, self.bounds, &mut self.positions);
    }
}

/// Mean wall-clock nanoseconds per run of `f` over `iters` runs, after
/// `warmup` unmeasured runs.
pub fn time_ns(warmup: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..warmup {
        f();
    }
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// Reads the sweep configuration from the environment.
pub fn sweep_from_env() -> SweepConfig {
    let parse = |name, default| {
        std::env::var(name)
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(default)
    };
    SweepConfig {
        sizes: list_env("PACDS_SIZES", &default_sizes()),
        trials: parse("PACDS_TRIALS", 30) as usize,
        seed: parse("PACDS_SEED", 0xC0FFEE),
        ..SweepConfig::default()
    }
}

/// The default size grid: 5 then 10..=100 step 10 (the paper sweeps 3..100).
pub fn default_sizes() -> Vec<usize> {
    let mut sizes = vec![5];
    sizes.extend((1..=10).map(|k| k * 10));
    sizes
}

/// Prints the table to stdout and writes `name.csv` under `PACDS_OUT`.
pub fn emit(name: &str, title: &str, series: &[Series]) {
    print!("{}", pacds_sim::csv::series_to_table(title, series));
    let dir: PathBuf = std::env::var("PACDS_OUT")
        .unwrap_or_else(|_| "results".to_string())
        .into();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!("{name}.csv"));
    match std::fs::write(&path, pacds_sim::csv::series_to_csv(series)) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A small seeded instance at the paper's density.
    pub(crate) fn instance(n: usize, radius: f64) -> Instance {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        Instance::uniform(&mut rng, density_side(n), radius, spread_energy(n, 1))
    }

    #[test]
    fn default_sizes_cover_the_paper_range() {
        let s = default_sizes();
        assert_eq!(s.first(), Some(&5));
        assert_eq!(s.last(), Some(&100));
        assert!(s.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn the_identity_gate_trips_on_one_differing_bit() {
        let want: [&[bool]; 3] = [
            &[true, true, false],
            &[true, false, false],
            &[true, false, false],
        ];
        assert!(identical("same", want, want).is_ok());
        for mask in 0..3 {
            let mut flipped = want[mask].to_vec();
            flipped[2] = !flipped[2];
            let mut got = want;
            got[mask] = &flipped;
            let err = identical("one bit", got, want).unwrap_err();
            assert_eq!(err.to_string(), "one bit: verdicts diverged");
        }
    }

    #[test]
    fn sweep_defaults_are_sane() {
        let sweep = SweepConfig::default();
        assert!(sweep.trials >= 1);
        assert_eq!(sweep.policies.len(), 5);
    }
}
