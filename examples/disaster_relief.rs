//! Domain scenario from the paper's motivation: a rapidly-deployed ad hoc
//! network (disaster relief / battlefield) with no infrastructure.
//!
//! 150 responders move by random waypoint through a 300x300 m area. The
//! network self-organises a gateway backbone with the power-aware EL2
//! policy, relief-coordination traffic is routed over it, and every host
//! pays energy for the packets it actually forwards. The run reports the
//! backbone's evolution and how long the deployment lasts, and renders an
//! ASCII snapshot of the field.
//!
//! ```sh
//! cargo run --release --example disaster_relief
//! ```

use pacds::core::{compute_cds, CdsConfig, CdsInput, Policy};
use pacds::graph::gen;
use pacds::mobility::{MobilityModel, RandomWaypoint};
use pacds::routing::{flood_cost, BackboneRoutes};
use rand::{Rng, SeedableRng};

const N: usize = 150;
const SIDE: f64 = 300.0;
const RADIUS: f64 = 40.0; // stronger field radios
const FLOWS_PER_INTERVAL: usize = 60;

fn main() {
    let bounds = pacds::geom::Rect::square(SIDE);
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(112);
    let mut positions = pacds::geom::placement::jittered_grid(&mut rng, bounds, N);
    let mut mobility = RandomWaypoint::new(6.0);
    let mut energy = vec![100.0f64; N];

    let mut interval = 0u32;
    let mut delivered = 0u64;
    let mut undeliverable = 0u64;
    let mut backbone_sizes = Vec::new();
    let alive = [true; N];
    let mut path = Vec::new();

    println!("deploying {N} responders over {SIDE}x{SIDE} m, radio range {RADIUS} m\n");

    let first_death = loop {
        let graph = gen::unit_disk(bounds, RADIUS, &positions);
        let levels: Vec<u64> = energy.iter().map(|&e| (e / 10.0).max(0.0) as u64).collect();
        let gateways = compute_cds(
            &CdsInput::with_energy(&graph, &levels),
            &CdsConfig::policy(Policy::EnergyDegree),
        );
        backbone_sizes.push(gateways.iter().filter(|&&b| b).count());
        // Responders move between intervals: route over fresh tables.
        let mut tables = BackboneRoutes::new();
        tables.install(&gateways, &alive);

        if interval == 0 {
            // Show the initial field and the cost of a coordination flood.
            print!(
                "{}",
                pacds::sim::render_ascii(bounds, &positions, &gateways, None, 60, 18)
            );
            let blind = flood_cost(&graph, 0, None);
            let overlay = flood_cost(&graph, 0, Some(&gateways));
            println!(
                "field-wide alert: {} transmissions via backbone vs {} blind ({}% saved)\n",
                overlay.transmissions,
                blind.transmissions,
                100 * (blind.transmissions - overlay.transmissions) / blind.transmissions.max(1)
            );
        }

        // Coordination traffic: random pairs exchange status updates.
        let mut forwards = vec![0u32; N];
        for _ in 0..FLOWS_PER_INTERVAL {
            let s = rng.random_range(0..N) as u32;
            let t = rng.random_range(0..N) as u32;
            match tables.assemble(&graph, s, t, &mut path) {
                Ok(()) => {
                    delivered += 1;
                    if path.len() > 2 {
                        for &hop in &path[1..path.len() - 1] {
                            forwards[hop as usize] += 1;
                        }
                    }
                }
                Err(_) => undeliverable += 1,
            }
        }

        // Energy: idle cost plus forwarding work.
        let mut died = false;
        for (v, e) in energy.iter_mut().enumerate() {
            *e -= 0.05 + 0.20 * f64::from(forwards[v]);
            if *e <= 0.0 {
                died = true;
            }
        }
        interval += 1;
        if died || interval > 20_000 {
            break interval;
        }
        mobility.step(&mut rng, bounds, &mut positions);
    };

    let mean_backbone = backbone_sizes.iter().sum::<usize>() as f64 / backbone_sizes.len() as f64;
    println!("first responder battery exhausted at interval {first_death}");
    println!(
        "traffic: {delivered} status updates delivered, {undeliverable} undeliverable \
         ({:.2}% loss)",
        100.0 * undeliverable as f64 / (delivered + undeliverable).max(1) as f64
    );
    println!(
        "backbone: {:.1} of {N} responders on average ({:.0}%) carried the relay load,",
        mean_backbone,
        100.0 * mean_backbone / N as f64
    );
    println!("rotated by remaining battery so no responder burns out early.");
}
