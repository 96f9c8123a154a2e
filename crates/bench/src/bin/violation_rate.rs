//! Soundness-gap experiment: how often does the paper-literal extended
//! Rule 2 (case analysis, applied simultaneously) produce a set that is not
//! a connected dominating set?
//!
//! The rate is measured over every connected interval of full lifetime
//! runs at the paper's parameters. See DESIGN.md ("fidelity notes") and the
//! counterexample test in `pacds-core` for the underlying mechanism.

use pacds_bench::sweep_from_env;
use pacds_energy::DrainModel;
use pacds_sim::experiments::violation_rate_experiment;

fn main() {
    let sweep = sweep_from_env();
    eprintln!(
        "violation_rate: sizes={:?} trials={} seed={:#x}",
        sweep.sizes, sweep.trials, sweep.seed
    );
    println!("# Paper-literal Rule 2: CDS violation rate per policy");
    println!(
        "{:>8} {:>14} {:>12} {:>12}",
        "policy", "intervals", "violations", "rate"
    );
    for (policy, total, bad) in violation_rate_experiment(&sweep, DrainModel::LinearInN) {
        let rate = if total == 0 {
            0.0
        } else {
            bad as f64 / total as f64
        };
        println!(
            "{:>8} {:>14} {:>12} {:>12.6}",
            policy.label(),
            total,
            bad,
            rate
        );
    }
}
