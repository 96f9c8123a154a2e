//! Watch the power-aware policies rotate gateway duty as batteries drain.
//!
//! Runs the full update-interval loop at a small size and prints, for ID
//! and EL1, how often each host served as a gateway and the final energy
//! spread — the mechanism behind the lifetime gains of Figures 11–13.
//!
//! ```sh
//! cargo run --release --example gateway_rotation
//! ```

use pacds::core::Policy;
use pacds::energy::DrainModel;
use pacds::sim::{NetworkState, SimConfig};
use rand::SeedableRng;

fn run(policy: Policy, seed: u64) -> (u32, Vec<u32>, f64) {
    let cfg = SimConfig::paper(20, policy, DrainModel::LinearInN);
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let mut state = NetworkState::init(cfg, &mut rng);
    let mut duty = vec![0u32; cfg.n];
    let mut intervals = 0u32;
    loop {
        let gateways = state.compute_gateways();
        for (v, &g) in gateways.iter().enumerate() {
            duty[v] += u32::from(g);
        }
        let died = state.drain(&gateways);
        intervals += 1;
        if !died.is_empty() || intervals >= 10_000 {
            break;
        }
        state.advance_topology(&mut rng);
    }
    // Spread of remaining energy = how (un)balanced consumption was.
    let energies: Vec<f64> = (0..cfg.n).map(|v| state.fleet().energy(v)).collect();
    let mean = energies.iter().sum::<f64>() / cfg.n as f64;
    let var = energies
        .iter()
        .map(|e| (e - mean) * (e - mean))
        .sum::<f64>()
        / cfg.n as f64;
    (intervals, duty, var.sqrt())
}

fn main() {
    for policy in [Policy::Id, Policy::Energy] {
        let (intervals, duty, spread) = run(policy, 99);
        println!(
            "{}: first death at interval {intervals}; residual energy stddev {spread:.2}",
            policy.label()
        );
        println!("  gateway duty per host: {duty:?}");
        let max = *duty.iter().max().unwrap();
        let min = *duty.iter().min().unwrap();
        println!("  duty imbalance (max - min): {}\n", max - min);
    }
    println!("EL1 spreads gateway duty, so batteries drain evenly and the");
    println!("first death arrives later than under the static ID priority.");
}
