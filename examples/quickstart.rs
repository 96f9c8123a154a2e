//! Quickstart: build an ad hoc network, run the marking process and each
//! selective-removal rule family, and verify the results.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use pacds::core::{compute_cds_trace, verify_cds, CdsConfig, CdsInput, Policy};
use pacds::graph::{gen, io, mask_to_vec};
use rand::SeedableRng;

fn main() {
    // 40 hosts uniformly placed in the paper's 100x100 arena, transmission
    // radius 25; re-sample until the unit-disk graph is connected.
    let bounds = pacds::geom::Rect::paper_arena();
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(2001);
    let (graph, _positions) = loop {
        let pts = pacds::geom::placement::uniform_points(&mut rng, bounds, 40);
        let g = gen::unit_disk(bounds, 25.0, &pts);
        if pacds::graph::algo::is_connected(&g) {
            break (g, pts);
        }
    };

    println!(
        "network: {} hosts, {} links, avg degree {:.1}\n",
        graph.n(),
        graph.m(),
        graph.avg_degree()
    );

    // Energy levels would normally come from batteries; use a spread here
    // so the energy-aware policies have something to react to.
    let energy: Vec<u64> = (0..graph.n() as u64).map(|i| 50 + (i * 13) % 50).collect();
    let input = CdsInput::with_energy(&graph, &energy);

    println!(
        "{:>6} {:>9} {:>8} {:>8}  gateways",
        "policy", "marked", "rule1", "final"
    );
    for policy in Policy::ALL {
        let trace = compute_cds_trace(&input, &CdsConfig::paper(policy));
        let count = |m: &[bool]| m.iter().filter(|&&b| b).count();
        verify_cds(&graph, &trace.after_rule2).expect("gateway set must be a CDS");
        let members = mask_to_vec(&trace.after_rule2);
        println!(
            "{:>6} {:>9} {:>8} {:>8}  {:?}",
            policy.label(),
            count(&trace.marked),
            count(&trace.after_rule1),
            count(&trace.after_rule2),
            &members[..members.len().min(12)],
        );
    }

    // Export the ID-policy gateway set for visual inspection with Graphviz.
    let cds = compute_cds_trace(&input, &CdsConfig::paper(Policy::Id)).after_rule2;
    let dot = io::to_dot(&graph, Some(&cds));
    let path = std::env::temp_dir().join("pacds_quickstart.dot");
    std::fs::write(&path, dot).expect("write DOT file");
    println!("\nDOT rendering of the ID gateway set: {}", path.display());
}
