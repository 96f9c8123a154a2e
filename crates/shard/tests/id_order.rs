//! The spatial engine stores its hosts in an internal tile-major,
//! cell-major order, but every priority key must still end on the
//! caller's id. These instances label their hosts against that order —
//! reverse cell-major and random — and make the id tie-break decide: equal
//! energies, and a lattice where every interior host has the same degree.
//! A key that read the internal id would unmark a different host of many
//! tied pairs, so each run must equal the whole-graph workspace on the
//! caller's labelling, for every shardable configuration, shard counts
//! {1, 4, 16}, with and without an off-mask.

use pacds_core::CdsWorkspace;
use pacds_geom::{placement, Point2, Rect};
use pacds_graph::gen::{unit_disk_csr, UnitDiskScratch};
use pacds_graph::Graph;
use pacds_shard::{check_shardable, ShardSpec, ShardedCds};
use pacds_testkit::harness::full_config_matrix;
use rand::{Rng, SeedableRng};

const SHARD_COUNTS: [usize; 3] = [1, 4, 16];
const RADIUS: f64 = 25.0;

/// One instance: positions in caller id order plus energies.
struct Instance {
    name: &'static str,
    bounds: Rect,
    points: Vec<Point2>,
    energy: Vec<u64>,
}

/// Row-major index of the `RADIUS`-wide cell holding `p`.
fn cell_of(bounds: Rect, p: Point2) -> usize {
    let cols = (bounds.width() / RADIUS).ceil() as usize;
    let cx = ((p.x - bounds.x0) / RADIUS) as usize;
    let cy = ((p.y - bounds.y0) / RADIUS) as usize;
    cy * cols + cx.min(cols - 1)
}

/// `points` relabelled so ids run against cell-major order: the host in
/// the last cell gets id 0.
fn reverse_cell_major(bounds: Rect, mut points: Vec<Point2>) -> Vec<Point2> {
    points.sort_by(|a, b| {
        let key = |p: &Point2| (cell_of(bounds, *p), p.x.to_bits(), p.y.to_bits());
        key(b).cmp(&key(a))
    });
    points
}

/// A `side × side` lattice of spacing 15: with radius 25 the diagonals
/// (21.2) are links and two steps (30) are not, so every interior host
/// has exactly 8 neighbours. A border host is covered by its inward
/// neighbour alone, and under the Id policy the lower id of the two goes;
/// the offset of 17.5 puts the two in different radius-wide cells.
fn lattice(side: usize) -> Vec<Point2> {
    let at = |k: usize| 17.5 + 15.0 * k as f64;
    (0..side * side)
        .map(|i| Point2::new(at(i % side), at(i / side)))
        .collect()
}

fn instances() -> Vec<Instance> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x1d_0bde);
    let bounds = Rect::square(250.0);
    let mut out = Vec::new();
    let random = placement::uniform_points(&mut rng, bounds, 400);
    let levels: Vec<u64> = (0..400).map(|_| rng.random_range(0..4)).collect();
    out.push(Instance {
        name: "random ids, few energy levels",
        bounds,
        points: random.clone(),
        energy: levels.clone(),
    });
    out.push(Instance {
        name: "random ids, equal energy",
        bounds,
        points: random.clone(),
        energy: vec![5; 400],
    });
    let reversed = reverse_cell_major(bounds, random);
    out.push(Instance {
        name: "reverse cell-major ids, few energy levels",
        bounds,
        points: reversed.clone(),
        energy: levels,
    });
    out.push(Instance {
        name: "reverse cell-major ids, equal energy",
        bounds,
        points: reversed,
        energy: vec![5; 400],
    });
    let grid_bounds = Rect::square(320.0);
    let lat = lattice(20);
    out.push(Instance {
        name: "lattice, reverse cell-major ids",
        bounds: grid_bounds,
        points: reverse_cell_major(grid_bounds, lat.clone()),
        energy: vec![5; lat.len()],
    });
    let mut shuffled = lat;
    for i in (1..shuffled.len()).rev() {
        shuffled.swap(i, rng.random_range(0..=i));
    }
    out.push(Instance {
        name: "lattice, random ids",
        bounds: grid_bounds,
        energy: vec![5; shuffled.len()],
        points: shuffled,
    });
    out
}

#[test]
fn verdicts_follow_the_callers_ids_not_the_internal_order() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x0ff);
    let mut engines: Vec<ShardedCds> = SHARD_COUNTS
        .iter()
        .map(|&s| ShardedCds::new(ShardSpec::new(s)).expect("default halo is legal"))
        .collect();
    let mut ws = CdsWorkspace::new();
    let (mut whole, mut scratch) = (Graph::default(), UnitDiskScratch::new());
    let mut runs = 0usize;
    for inst in instances() {
        let n = inst.points.len();
        let masked: Vec<bool> = (0..n).map(|_| rng.random_bool(0.1)).collect();
        for off in [None, Some(masked.as_slice())] {
            unit_disk_csr(
                inst.bounds,
                RADIUS,
                &inst.points,
                off,
                &mut whole,
                &mut scratch,
            );
            for cfg in full_config_matrix() {
                if check_shardable(&cfg).is_err() {
                    continue;
                }
                let expected = ws.compute(&whole, Some(&inst.energy), &cfg).clone();
                for eng in &mut engines {
                    let ctx = format!(
                        "{} off={} cfg={cfg:?} shards={}",
                        inst.name,
                        off.is_some(),
                        eng.spec().shards
                    );
                    let got = eng
                        .compute_unit_disk_masked(
                            inst.bounds,
                            RADIUS,
                            &inst.points,
                            off,
                            Some(&inst.energy),
                            &cfg,
                        )
                        .unwrap_or_else(|e| panic!("{ctx}: unexpected {e}"));
                    assert_eq!(got, &expected, "gateway mask diverged: {ctx}");
                    assert_eq!(eng.marked(), ws.marked(), "marked diverged: {ctx}");
                    assert_eq!(
                        eng.after_rule1(),
                        ws.after_rule1(),
                        "after-Rule-1 diverged: {ctx}"
                    );
                    runs += 1;
                }
            }
        }
    }
    // 6 instances × 2 masks × 7 shardable configs × 3 shard counts.
    assert_eq!(runs, 6 * 2 * 7 * 3, "matrix coverage changed");
}
