//! Calibration probe: lifetime and gateway-set size for every
//! (policy, Rule 2 semantics, application mode) combination, under each of
//! the paper's drain models. This is the experiment that selected the
//! workspace's reproduction defaults — see DESIGN.md "fidelity notes" and
//! EXPERIMENTS.md for the resulting table.
//!
//! Env knobs: `ADDITIVE=1` switches to the additive drain reading;
//! `QUANTUM=<f>` overrides the energy-level quantum.

use pacds_core::{CdsConfig, Policy};
use pacds_energy::DrainModel;
use pacds_sim::montecarlo::run_trials;
use pacds_sim::{SimConfig, Simulation, Summary};

fn main() {
    let n = 40;
    for model in [
        DrainModel::ConstantTotal,
        DrainModel::LinearInN,
        DrainModel::QuadraticInN,
    ] {
        println!("== model {} n={n}", model.label());
        for (name, cds) in [
            ("NR", CdsConfig::policy(Policy::NoPruning)),
            ("ID", CdsConfig::policy(Policy::Id)),
            ("ND-paper", CdsConfig::paper(Policy::Degree)),
            ("ND-safe", CdsConfig::policy(Policy::Degree)),
            ("EL1-paper", CdsConfig::paper(Policy::Energy)),
            ("EL1-safe", CdsConfig::policy(Policy::Energy)),
            ("EL2-paper", CdsConfig::paper(Policy::EnergyDegree)),
            ("EL2-safe", CdsConfig::policy(Policy::EnergyDegree)),
            ("ID-seq", CdsConfig::sequential(Policy::Id)),
            ("ND-seq", CdsConfig::sequential(Policy::Degree)),
            ("EL1-seq", CdsConfig::sequential(Policy::Energy)),
            ("EL2-seq", CdsConfig::sequential(Policy::EnergyDegree)),
        ] {
            let mut cfg = SimConfig::paper(n, Policy::Id, model);
            cfg.cds = cds;
            cfg.energy.additive_gateway_drain = std::env::var("ADDITIVE").is_ok();
            if let Ok(q) = std::env::var("QUANTUM") {
                cfg.energy.quantum = q.parse().unwrap();
            }
            let out = run_trials(0xFEED ^ n as u64, 24, |_, rng| {
                let sim = Simulation::new(cfg, rng).without_verification();
                let o = sim.run_lifetime(rng);
                (f64::from(o.intervals), o.mean_gateways)
            });
            let lives: Vec<f64> = out.iter().map(|o| o.0).collect();
            let gws: Vec<f64> = out.iter().map(|o| o.1).collect();
            println!(
                "{:>10}: life {}  |G'| {}",
                name,
                Summary::from_slice(&lives),
                Summary::from_slice(&gws)
            );
        }
    }
}
