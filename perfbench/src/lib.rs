//! End-to-end and per-layer benchmark of the PACDS stack.
//!
//! Four workloads, each run in its own process from one seed:
//!
//! * [`paper`] — `paper-lifetime`, the paper's Fig. 12/13 lifetime trials;
//! * [`churn`] — `churn-reroute`, incremental churn plus kill-and-reroute
//!   forwarding at n = 10⁵;
//! * [`wire`] — `wire-mixed` (one `pacds-serve`) and `wire-cluster` (the
//!   same mix through a `pacds-cluster` coordinator).
//!
//! Every workload checks its own answers outside the timed windows; each
//! wrong answer is a failed operation. See `README.md` for the metric map
//! and the per-layer predictions.

pub mod churn;
pub mod metrics;
pub mod paper;
pub mod stats;
pub mod trace;
pub mod wire;

use std::time::Duration;

pub const WORKLOADS: [&str; 4] = [
    "paper-lifetime",
    "churn-reroute",
    "wire-mixed",
    "wire-cluster",
];

/// Run parameters shared by every workload.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    pub seed: u64,
    /// Measured time of the run.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

impl Opts {
    pub fn budget(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * share)
    }
}

/// Runs the named workload.
pub fn run_workload(name: &str, opts: &Opts) -> Result<metrics::Outcome, String> {
    let mut out = match name {
        "paper-lifetime" => paper::run(opts)?,
        "churn-reroute" => churn::run(opts)?,
        "wire-mixed" => wire::run(opts, false)?,
        "wire-cluster" => wire::run(opts, true)?,
        _ => {
            return Err(format!(
                "unknown workload {name:?}; expected one of {WORKLOADS:?}"
            ))
        }
    };
    out.set("peak_rss_mb", metrics::peak_rss_mb());
    Ok(out)
}
