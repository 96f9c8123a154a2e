//! Runs the localized message-passing protocol — one actor thread per host,
//! communicating only with radio neighbours — and checks it against the
//! centralised computation.
//!
//! ```sh
//! cargo run --example distributed_protocol
//! ```

use pacds::core::{compute_cds, CdsConfig, CdsInput, Policy};
use pacds::distributed::run_distributed;
use pacds::graph::{gen, mask_to_vec};
use rand::SeedableRng;

fn main() {
    let bounds = pacds::geom::Rect::paper_arena();
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(4242);
    let pts = pacds::geom::placement::uniform_points(&mut rng, bounds, 50);
    let graph = gen::unit_disk(bounds, 25.0, &pts);
    let energy: Vec<u64> = (0..graph.n() as u64).map(|i| (i * 37) % 100).collect();

    println!(
        "{} hosts exchange neighbour sets, markers and rule decisions over",
        graph.n()
    );
    println!("std::sync::mpsc channels — no host ever sees the global topology.\n");

    for policy in [
        Policy::Id,
        Policy::Degree,
        Policy::Energy,
        Policy::EnergyDegree,
    ] {
        let cfg = CdsConfig::paper(policy);
        let distributed = run_distributed(&graph, Some(&energy), &cfg);
        let centralized = compute_cds(&CdsInput::with_energy(&graph, &energy), &cfg);
        assert_eq!(
            distributed, centralized,
            "protocol must agree with the centralised computation"
        );
        println!(
            "{:>4}: {} gateways {:?}",
            policy.label(),
            distributed.iter().filter(|&&b| b).count(),
            &mask_to_vec(&distributed)[..mask_to_vec(&distributed).len().min(14)]
        );
    }
    println!("\nall policies: distributed == centralized ✓");
}
