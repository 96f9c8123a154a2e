//! Dominating-set-based routing demo: builds the gateway overlay, prints a
//! Figure-2-style gateway routing table, routes packets with the 3-step
//! procedure, and reports path stretch against true shortest paths.
//!
//! ```sh
//! cargo run --example routing_demo
//! ```

use pacds::core::{compute_cds, CdsConfig, CdsInput, Policy};
use pacds::graph::gen;
use pacds::routing::{stretch_summary, BackboneRoutes};
use rand::SeedableRng;

fn main() {
    let bounds = pacds::geom::Rect::paper_arena();
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(77);
    let graph = loop {
        let pts = pacds::geom::placement::uniform_points(&mut rng, bounds, 30);
        let g = gen::unit_disk(bounds, 25.0, &pts);
        if pacds::graph::algo::is_connected(&g) {
            break g;
        }
    };

    let cds = compute_cds(&CdsInput::new(&graph), &CdsConfig::policy(Policy::Degree));
    let mut routes = BackboneRoutes::new();
    routes.install(&cds, &vec![true; graph.n()]);
    let gateways = pacds::graph::mask_to_vec(&cds);
    println!(
        "{} hosts, {} links; gateway overlay: {:?}\n",
        graph.n(),
        graph.m(),
        gateways
    );

    // A Figure 2(c)-style routing table at the first gateway: each row's
    // distance and next hop come from the route to that gateway.
    let at = gateways[0];
    let mut path = Vec::new();
    println!("gateway routing table at host {at}:");
    println!(
        "{:>8} {:>9} {:>9}  domain members",
        "gateway", "distance", "next hop"
    );
    for &h in &gateways {
        if routes.assemble(&graph, at, h, &mut path).is_err() {
            continue;
        }
        let members: Vec<u32> = graph
            .neighbors(h)
            .iter()
            .copied()
            .filter(|&u| !cds[u as usize])
            .collect();
        let next_hop = path.get(1).copied().unwrap_or(at);
        println!("{h:>8} {:>9} {next_hop:>9}  {members:?}", path.len() - 1);
    }

    // Route a few packets with the three-step procedure.
    println!("\nsample routes (3-step procedure):");
    let n = graph.n() as u32;
    for (s, t) in [(0u32, n - 1), (1, n / 2), (n / 3, n - 2)] {
        match routes.assemble(&graph, s, t, &mut path) {
            Ok(()) => println!("  {s:>3} -> {t:<3}  {path:?}"),
            Err(e) => println!("  {s:>3} -> {t:<3}  failed: {e}"),
        }
    }

    // How much longer are overlay routes than true shortest paths?
    let s = stretch_summary(&graph, &mut routes);
    println!(
        "\nstretch over {} pairs: mean +{:.3} hops, max +{}, {:.1}% optimal, {} failures",
        s.pairs,
        s.mean_extra_hops,
        s.max_extra_hops,
        100.0 * s.optimal_fraction,
        s.failures
    );
}
