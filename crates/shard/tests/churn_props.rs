//! Property tests for the churn engine's dirty-tile machinery.
//!
//! * **Minimality** — on an adversarial corridor instance, *skipping any
//!   one dirty tile* during the refresh produces divergence from the
//!   from-scratch recompute: the dirty set cannot be shrunk (mirrors the
//!   halo-width minimality proof in `props.rs`, one level up).
//! * **Locality / soundness** — events never dirty a tile whose 2-hop
//!   halo they cannot touch, non-dirty tiles keep their retained solves
//!   byte-for-byte, and the refreshed masks still match a from-scratch
//!   recompute — i.e. the stale solves were still exact.
//! * **Flip locality** — a kill can only flip verdicts within the 2-hop
//!   geometric reach of the killed host; a battery drain only within
//!   1 hop (priorities are compared between direct neighbours only).

use pacds_core::{CdsConfig, Policy};
use pacds_geom::{placement, Point2, Rect, EPS};
use pacds_shard::{ChurnEngine, ChurnEvent, ShardSpec, ShardedCds};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// From-scratch masked recompute of the engine's current live topology.
fn scratch_masks(
    eng: &ChurnEngine,
    bounds: Rect,
    radius: f64,
) -> (Vec<bool>, Vec<bool>, Vec<bool>) {
    let mut scratch = ShardedCds::new(ShardSpec::new(eng.tiles())).unwrap();
    let off = eng.off_mask();
    scratch
        .compute_unit_disk_masked(
            bounds,
            radius,
            eng.positions(),
            Some(&off),
            Some(eng.energy()),
            eng.cfg(),
        )
        .unwrap();
    (
        scratch.marked().clone(),
        scratch.after_rule1().clone(),
        scratch.gateways().clone(),
    )
}

fn masks(eng: &ChurnEngine) -> (Vec<bool>, Vec<bool>, Vec<bool>) {
    (
        eng.marked().clone(),
        eng.after_rule1().clone(),
        eng.gateways().clone(),
    )
}

/// Chain corridor for dirty-set minimality: 13 hosts 0.9 apart on a line
/// at unit radius, domain 12 wide → four 3-wide strip tiles with
/// boundaries at x = 3, 6, 9. Every interior chain node is a gateway
/// (marked, never pruned). Killing node 6 (x ≈ 5.9, just left of the
/// x = 6 boundary) splits the chain: nodes 5 and 6 flip in tile 1 and
/// node 7 flips in tile 2, while the 2-hop dirty margin (≈ 2.0) reaches
/// exactly tiles {1, 2} — every dirty tile's solve genuinely changes, so
/// skipping *any* of them must diverge. A ±0.02 jitter keeps all
/// adjacencies (neighbour gap ≤ 0.94 < 1, skip gap ≥ 1.76 > 1) and all
/// tile memberships / margin decisions intact (slack ≥ 0.8).
fn chain_corridor(jitter_seed: u64) -> (Rect, f64, Vec<Point2>) {
    let mut rng = StdRng::seed_from_u64(jitter_seed);
    let points = (0..13)
        .map(|i| {
            Point2::new(
                0.5 + 0.9 * i as f64 + rng.random_range(-0.02f64..0.02),
                rng.random_range(-0.02f64..0.02),
            )
        })
        .collect();
    (Rect::new(0.0, -0.5, 12.0, 0.5), 1.0, points)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Minimality: on the chain corridor, the kill dirties exactly two
    /// tiles and skipping either one leaves a stale verdict in the merged
    /// masks — the dirty set cannot be shrunk by any single tile.
    #[test]
    fn skipping_any_dirty_tile_diverges_on_the_corridor(jitter_seed in any::<u64>()) {
        let (bounds, radius, points) = chain_corridor(jitter_seed);
        let energy = vec![50u64; points.len()];
        let cfg = CdsConfig::policy(Policy::Degree);
        let kill = ChurnEvent::KillNode { node: 6 };

        // Reference: full refresh matches scratch (and flips happened).
        let mut full = ChurnEngine::open(
            ShardSpec::new(4), bounds, radius, &points, &energy, &cfg,
        ).unwrap();
        full.apply(&kill).unwrap();
        let dirty = full.dirty_tiles();
        prop_assert_eq!(dirty.len(), 2, "gadget must dirty exactly two tiles");
        let stats = full.refresh();
        prop_assert!(stats.gateway_flips >= 3, "the kill must flip verdicts");
        let expected = masks(&full);
        prop_assert_eq!(&expected, &scratch_masks(&full, bounds, radius));

        // Skipping any one dirty tile must diverge.
        for &skip in &dirty {
            let mut eng = ChurnEngine::open(
                ShardSpec::new(4), bounds, radius, &points, &energy, &cfg,
            ).unwrap();
            eng.apply(&kill).unwrap();
            let stats = eng.refresh_where(|t| t != skip);
            prop_assert_eq!(stats.resolved_tiles, dirty.len() - 1);
            prop_assert_ne!(
                &masks(&eng),
                &expected,
                "skipping dirty tile {} must leave a stale verdict (seed {})",
                skip,
                jitter_seed
            );
        }
    }

    /// Soundness + locality on random instances: after any event, tiles
    /// outside the event's dirty margin keep their retained per-tile
    /// solves byte-for-byte, are never re-solved, and the merged masks
    /// still match a from-scratch recompute — the stale solves were
    /// still exact, because the event lay outside their 2-hop halo.
    #[test]
    fn events_outside_a_tiles_halo_never_change_its_solve(
        n in 30usize..90,
        seed in any::<u64>(),
        kind in 0u8..4,
    ) {
        let bounds = Rect::paper_arena();
        let radius = 12.0;
        let mut rng = StdRng::seed_from_u64(seed);
        let points = placement::uniform_points(&mut rng, bounds, n);
        let energy: Vec<u64> = (0..n).map(|_| rng.random_range(5u64..100)).collect();
        let cfg = CdsConfig::policy(Policy::EnergyDegree);
        let mut eng = ChurnEngine::open(
            ShardSpec::new(16), bounds, radius, &points, &energy, &cfg,
        ).unwrap();

        let node = rng.random_range(0..n as u32);
        let ev = match kind {
            0 => ChurnEvent::AddNode {
                pos: Point2::new(
                    rng.random_range(bounds.x0..bounds.x1),
                    rng.random_range(bounds.y0..bounds.y1),
                ),
                energy: 42,
            },
            1 => ChurnEvent::MoveNode {
                node,
                to: Point2::new(
                    rng.random_range(bounds.x0..bounds.x1),
                    rng.random_range(bounds.y0..bounds.y1),
                ),
            },
            2 => ChurnEvent::KillNode { node },
            _ => ChurnEvent::DrainBattery { node, remaining: 1 },
        };
        eng.apply(&ev).unwrap();

        let dirty = eng.dirty_tiles();
        let clean: Vec<usize> =
            (0..eng.tiles()).filter(|t| !dirty.contains(t)).collect();
        let before: Vec<Vec<(u32, u8)>> =
            clean.iter().map(|&t| eng.tile_result(t).to_vec()).collect();

        let stats = eng.refresh();
        prop_assert_eq!(stats.resolved_tiles, dirty.len());
        for (&t, snap) in clean.iter().zip(&before) {
            prop_assert_eq!(
                eng.tile_result(t), snap.as_slice(),
                "non-dirty tile {} was touched", t
            );
        }
        prop_assert_eq!(&masks(&eng), &scratch_masks(&eng, bounds, radius));
    }

    /// Flip locality: a kill can only flip verdicts of hosts within the
    /// 2-hop geometric reach of the killed position; a drain (under an
    /// energy-aware policy) only within 1 hop.
    #[test]
    fn verdict_flips_stay_within_the_event_reach(
        n in 30usize..80,
        seed in any::<u64>(),
        drain in any::<bool>(),
    ) {
        let bounds = Rect::paper_arena();
        let radius = 20.0;
        let hop = (radius * radius + EPS).sqrt();
        let mut rng = StdRng::seed_from_u64(seed);
        let points = placement::uniform_points(&mut rng, bounds, n);
        let energy: Vec<u64> = (0..n).map(|_| rng.random_range(5u64..100)).collect();
        let cfg = CdsConfig::policy(Policy::Energy);
        let mut eng = ChurnEngine::open(
            ShardSpec::new(9), bounds, radius, &points, &energy, &cfg,
        ).unwrap();

        let node = rng.random_range(0..n as u32);
        let (ev, reach) = if drain {
            (ChurnEvent::DrainBattery { node, remaining: 1 }, hop)
        } else {
            (ChurnEvent::KillNode { node }, 2.0 * hop)
        };
        let center = eng.positions()[node as usize];
        let before = masks(&eng);
        eng.apply(&ev).unwrap();
        eng.refresh();
        let after = masks(&eng);

        for i in 0..n {
            let flipped = before.0[i] != after.0[i]
                || before.1[i] != after.1[i]
                || before.2[i] != after.2[i];
            if flipped {
                let p = eng.positions()[i];
                let d = ((p.x - center.x).powi(2) + (p.y - center.y).powi(2)).sqrt();
                prop_assert!(
                    d <= reach + 1e-6,
                    "host {} at distance {:.3} flipped beyond the event reach {:.3}",
                    i, d, reach
                );
            }
        }
    }
}
