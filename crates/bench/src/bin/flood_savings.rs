//! Broadcast-storm reduction: transmissions needed for a network-wide
//! flood, blind vs gateway-only, per policy — the quantitative form of
//! the paper's "reduce the searching space to the dominating set".

use pacds_bench::sweep_from_env;
use pacds_core::Policy;
use pacds_energy::DrainModel;
use pacds_routing::flood_cost;
use pacds_sim::montecarlo::run_trials;
use pacds_sim::{NetworkState, SimConfig, Summary};

fn main() {
    let sweep = sweep_from_env();
    eprintln!(
        "flood_savings: sizes={:?} trials={}",
        sweep.sizes, sweep.trials
    );
    println!("# Flood transmissions: blind vs gateway-only relays");
    print!("{:>6} {:>10}", "n", "blind");
    for p in [
        Policy::NoPruning,
        Policy::Id,
        Policy::Degree,
        Policy::EnergyDegree,
    ] {
        print!("{:>10}", p.label());
    }
    println!("{:>12}", "best saving");
    for &n in &sweep.sizes {
        let cfg_nr = SimConfig::paper(n, Policy::NoPruning, DrainModel::LinearInN);
        let rows = run_trials(sweep.seed ^ n as u64, sweep.trials, |_, rng| {
            let mut st = NetworkState::init(cfg_nr, rng);
            let g = st.graph().clone();
            let blind = flood_cost(&g, 0, None).transmissions as f64;
            let levels = st.fleet().levels();
            let mut per_policy = Vec::new();
            for policy in [
                Policy::NoPruning,
                Policy::Id,
                Policy::Degree,
                Policy::EnergyDegree,
            ] {
                let cds = pacds_core::compute_cds(
                    &pacds_core::CdsInput::with_energy(&g, &levels),
                    &pacds_core::CdsConfig::policy(policy),
                );
                per_policy.push(flood_cost(&g, 0, Some(&cds)).transmissions as f64);
            }
            let _ = st.compute_gateways();
            (blind, per_policy)
        });
        let blind = Summary::from_slice(&rows.iter().map(|r| r.0).collect::<Vec<_>>());
        print!("{:>6} {:>10.1}", n, blind.mean);
        let mut best = f64::INFINITY;
        for i in 0..4 {
            let s = Summary::from_slice(&rows.iter().map(|r| r.1[i]).collect::<Vec<_>>());
            best = best.min(s.mean);
            print!("{:>10.1}", s.mean);
        }
        println!("{:>11.1}%", 100.0 * (1.0 - best / blind.mean));
    }
}
