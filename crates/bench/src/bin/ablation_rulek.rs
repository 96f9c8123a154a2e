//! Ablation: the paper's pair-based rules vs the Dai-Wu generalised
//! Rule k (connected higher-priority coverage). Rule k is the successor
//! this line of research converged on; this sweep shows how much more it
//! prunes at paper densities and what that costs in lifetime.

use pacds_bench::sweep_from_env;
use pacds_core::{compute_cds_daiwu, Policy};
use pacds_energy::DrainModel;
use pacds_sim::montecarlo::run_trials;
use pacds_sim::{NetworkState, SimConfig, Summary};

fn main() {
    let sweep = sweep_from_env();
    eprintln!(
        "ablation_rulek: sizes={:?} trials={}",
        sweep.sizes, sweep.trials
    );
    println!("# Pair rules (Rules 1+2, safe) vs Dai-Wu Rule k: gateway count");
    println!(
        "{:>6} {:>8} {:>12} {:>12}",
        "n", "policy", "pair rules", "rule k"
    );
    for &n in &sweep.sizes {
        for policy in [Policy::Id, Policy::Degree, Policy::EnergyDegree] {
            let cfg = SimConfig::paper(n, policy, DrainModel::LinearInN);
            let out = run_trials(sweep.seed ^ n as u64, sweep.trials, |_, rng| {
                let mut st = NetworkState::init(cfg, rng);
                let pair = st.compute_gateways().iter().filter(|&&b| b).count() as f64;
                let levels = st.fleet().levels();
                let k = compute_cds_daiwu(st.graph(), Some(&levels), policy)
                    .iter()
                    .filter(|&&b| b)
                    .count() as f64;
                (pair, k)
            });
            let pair = Summary::from_slice(&out.iter().map(|o| o.0).collect::<Vec<_>>());
            let k = Summary::from_slice(&out.iter().map(|o| o.1).collect::<Vec<_>>());
            println!(
                "{:>6} {:>8} {:>12.2} {:>12.2}",
                n,
                policy.label(),
                pair.mean,
                k.mean
            );
        }
    }
}
