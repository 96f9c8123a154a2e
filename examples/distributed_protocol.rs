//! Runs the localized message-passing protocol — one state machine per
//! host, hearing only from its radio neighbours, under a seeded shuffled
//! delivery order — and checks it against the centralised computation.
//!
//! ```sh
//! cargo run --example distributed_protocol
//! ```

use pacds::core::{compute_cds, CdsConfig, CdsInput, Policy};
use pacds::distributed::{run_distributed, Schedule};
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
    println!("per-link FIFO queues in a shuffled order — no host ever sees the global topology.\n");

    for policy in [
        Policy::Id,
        Policy::Degree,
        Policy::Energy,
        Policy::EnergyDegree,
    ] {
        let cfg = CdsConfig::paper(policy);
        let run = run_distributed(&graph, Some(&energy), &cfg, Schedule::Shuffled(4242));
        let distributed = run.gateways;
        let centralized = compute_cds(&CdsInput::with_energy(&graph, &energy), &cfg);
        assert_eq!(
            distributed, centralized,
            "protocol must agree with the centralised computation"
        );
        println!(
            "{:>4}: {} gateways after {} messages {:?}",
            policy.label(),
            distributed.iter().filter(|&&b| b).count(),
            run.sent.total_messages,
            &mask_to_vec(&distributed)[..mask_to_vec(&distributed).len().min(14)]
        );
    }
    println!("\nall policies: distributed == centralized ✓");
}
