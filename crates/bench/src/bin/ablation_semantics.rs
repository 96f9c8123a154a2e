//! Ablation: safe (min-of-three) vs paper-literal (case-analysis) Rule 2,
//! for set size and lifetime. This is the calibration experiment behind the
//! workspace's choice of default semantics — see EXPERIMENTS.md.

use pacds_bench::sweep_from_env;
use pacds_core::{CdsConfig, Policy};
use pacds_energy::DrainModel;
use pacds_sim::montecarlo::run_trials;
use pacds_sim::{SimConfig, Simulation, Summary};

fn main() {
    let sweep = sweep_from_env();
    eprintln!(
        "ablation_semantics: sizes={:?} trials={}",
        sweep.sizes, sweep.trials
    );
    println!("# Rule 2 semantics ablation (model 2 drain)");
    println!(
        "{:>6} {:>8} {:>10} {:>12} {:>12}",
        "n", "policy", "semantics", "lifetime", "|G'|"
    );
    for &n in &sweep.sizes {
        for policy in [
            Policy::Id,
            Policy::Degree,
            Policy::Energy,
            Policy::EnergyDegree,
        ] {
            for (name, cds) in [
                ("safe", CdsConfig::policy(policy)),
                ("literal", CdsConfig::paper(policy)),
                ("seq", CdsConfig::sequential(policy)),
            ] {
                let mut cfg = SimConfig::paper(n, policy, DrainModel::LinearInN);
                cfg.cds = cds;
                let out = run_trials(sweep.seed ^ n as u64, sweep.trials, |_, rng| {
                    let sim = Simulation::new(cfg, rng).without_verification();
                    let o = sim.run_lifetime(rng);
                    (f64::from(o.intervals), o.mean_gateways)
                });
                let lives: Vec<f64> = out.iter().map(|o| o.0).collect();
                let gws: Vec<f64> = out.iter().map(|o| o.1).collect();
                println!(
                    "{:>6} {:>8} {:>10} {:>12.2} {:>12.2}",
                    n,
                    policy.label(),
                    name,
                    Summary::from_slice(&lives).mean,
                    Summary::from_slice(&gws).mean,
                );
            }
        }
    }
}
