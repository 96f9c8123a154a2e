//! Soundness probe: classifies how the paper-literal simultaneous
//! case-analysis Rule 2 fails (undominated vertex vs disconnected induced
//! subgraph) across random paper-scale topologies.

use pacds_core::{compute_cds, verify_cds, CdsConfig, CdsInput, CdsViolation, Policy};
use pacds_graph::{algo, gen};
use rand::{Rng, SeedableRng};

fn main() {
    let bounds = pacds_geom::Rect::paper_arena();
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    for policy in [
        Policy::Id,
        Policy::Degree,
        Policy::Energy,
        Policy::EnergyDegree,
    ] {
        let (mut total, mut notdom, mut notconn, mut empty) = (0u32, 0u32, 0u32, 0u32);
        for _ in 0..400 {
            let n = rng.random_range(10..=100);
            let pts = pacds_geom::placement::uniform_points(&mut rng, bounds, n);
            let g = gen::unit_disk(bounds, 25.0, &pts);
            if !algo::is_connected(&g) {
                continue;
            }
            let e: Vec<u64> = (0..n).map(|_| rng.random_range(0..10u64)).collect();
            let cds = compute_cds(&CdsInput::with_energy(&g, &e), &CdsConfig::paper(policy));
            total += 1;
            match verify_cds(&g, &cds) {
                Ok(()) => {}
                Err(CdsViolation::NotDominating { .. }) => notdom += 1,
                Err(CdsViolation::NotConnected) => notconn += 1,
                Err(CdsViolation::Empty) => empty += 1,
            }
        }
        println!(
            "{:>4}: total {total} notdom {notdom} notconn {notconn} empty {empty}",
            policy.label()
        );
    }
}
