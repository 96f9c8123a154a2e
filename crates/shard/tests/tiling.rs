//! Pins of the spatial tiling.
//!
//! The tile grid decides which hosts a tile owns, which it replicates as
//! halo and which tiles an event dirties, so `ShardStats`' tile counts and
//! `ChurnStats`' per-step tile counts are a fingerprint of it: a change to
//! the grid shape, tile assignment, gather margin or dirty predicate moves
//! them. perfbench's `shard.*` metrics and the BENCH_shard / BENCH_churn
//! rows read the same counters.

use pacds_core::{CdsConfig, Policy};
use pacds_geom::{placement, Point2, Rect};
use pacds_shard::{ChurnEngine, ChurnEvent, ShardSpec, ShardedCds};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const N: usize = 5000;
const SIDE: f64 = 700.0;

fn instance() -> (Rect, Vec<Point2>, Vec<u64>) {
    let bounds = Rect::square(SIDE);
    let mut rng = StdRng::seed_from_u64(2020);
    let pts = placement::uniform_points(&mut rng, bounds, N);
    let energy: Vec<u64> = (0..N as u64).map(|i| (i * 7919) % 100).collect();
    (bounds, pts, energy)
}

/// A 20-step stream of mixed events, three per step, drawn against a
/// shadow of the engine's node count and liveness so every event is valid.
fn churn_trace() -> Vec<Vec<ChurnEvent>> {
    let mut rng = StdRng::seed_from_u64(2021);
    let mut alive = vec![true; N];
    let pick_live = |rng: &mut StdRng, alive: &[bool]| loop {
        let v = rng.random_range(0..alive.len() as u32);
        if alive[v as usize] {
            return v;
        }
    };
    let pos =
        |rng: &mut StdRng| Point2::new(rng.random_range(0.0..SIDE), rng.random_range(0.0..SIDE));
    (0..20)
        .map(|_| {
            (0..3)
                .map(|_| match rng.random_range(0..4) {
                    0 => {
                        alive.push(true);
                        ChurnEvent::AddNode {
                            pos: pos(&mut rng),
                            energy: rng.random_range(0..100),
                        }
                    }
                    1 => ChurnEvent::MoveNode {
                        node: pick_live(&mut rng, &alive),
                        to: pos(&mut rng),
                    },
                    2 => {
                        let node = pick_live(&mut rng, &alive);
                        alive[node as usize] = false;
                        ChurnEvent::KillNode { node }
                    }
                    _ => ChurnEvent::DrainBattery {
                        node: pick_live(&mut rng, &alive),
                        remaining: rng.random_range(0..100),
                    },
                })
                .collect()
        })
        .collect()
}

/// `(dirty_tiles, resolved_tiles, total_tiles)` of every step, plus the
/// final masks.
type Replay = (Vec<(usize, usize, usize)>, Vec<bool>, Vec<bool>, Vec<bool>);

fn replay(spec: ShardSpec) -> Replay {
    let (bounds, pts, energy) = instance();
    let cfg = CdsConfig::policy(Policy::EnergyDegree);
    let mut eng = ChurnEngine::open(spec, bounds, 25.0, &pts, &energy, &cfg).unwrap();
    let steps = churn_trace()
        .iter()
        .map(|events| {
            let st = eng.step(events).unwrap();
            (st.dirty_tiles, st.resolved_tiles, st.total_tiles)
        })
        .collect();
    (
        steps,
        eng.marked().clone(),
        eng.after_rule1().clone(),
        eng.gateways().clone(),
    )
}

#[test]
fn sharded_tile_stats_are_pinned() {
    let (bounds, pts, energy) = instance();
    let cfg = CdsConfig::policy(Policy::EnergyDegree);
    let mut got = Vec::new();
    for shards in [0usize, 4, 9] {
        let mut eng = ShardedCds::new(ShardSpec::new(shards)).unwrap();
        eng.compute_unit_disk(bounds, 25.0, &pts, Some(&energy), &cfg)
            .unwrap();
        let st = eng.stats();
        got.push((
            shards,
            st.tiles,
            st.owned_nodes,
            st.halo_nodes,
            st.cross_tile_edges,
        ));
    }
    // shards 0 resolves to 3 at n = 5000, which grid_for lays out 2×2,
    // the same grid as shards 4.
    assert_eq!(
        got,
        [
            (0, 4, 5000, 1516, 1701),
            (4, 4, 5000, 1516, 1701),
            (9, 9, 5000, 3123, 2975),
        ]
    );
}

#[test]
fn churn_tile_counts_are_pinned() {
    // Every dirty tile is re-solved: (dirty, dirty, total) per step.
    let pinned: [(usize, usize, [usize; 20]); 2] = [
        // The derived grid: 7×7 tiles of side 100 (twice the 2-hop margin).
        (
            0,
            49,
            [
                7, 9, 11, 6, 9, 8, 13, 12, 12, 14, 11, 12, 10, 10, 9, 7, 10, 12, 9, 16,
            ],
        ),
        (
            9,
            9,
            [5, 5, 5, 6, 6, 3, 4, 4, 4, 4, 4, 3, 4, 4, 4, 2, 4, 5, 3, 7],
        ),
    ];
    for (shards, total, dirty) in pinned {
        let (steps, ..) = replay(ShardSpec::new(shards));
        let expected: Vec<_> = dirty.iter().map(|&d| (d, d, total)).collect();
        assert_eq!(steps, expected, "shards {shards}");
    }
}

#[test]
fn a_wider_halo_changes_no_churn_verdict_or_tile_count() {
    // The churn engine accepts any halo of at least REQUIRED_HALO but
    // always gathers the exact 2-hop margin, so a wider halo replays the
    // same trace to the same masks and the same tiles.
    for shards in [0usize, 9] {
        let exact = replay(ShardSpec::new(shards));
        let wide = replay(ShardSpec {
            halo: 3,
            ..ShardSpec::new(shards)
        });
        assert_eq!(exact, wide, "shards {shards}");
    }
}
