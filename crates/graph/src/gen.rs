//! Graph generators.
//!
//! [`unit_disk`] is the paper's network model: hosts within mutual
//! transmission range are connected. The deterministic families exist for
//! tests, and [`gnp`] provides a non-geometric random baseline.
//!
//! Every unit-disk build ([`unit_disk`], [`unit_disk_csr`],
//! [`unit_disk_csr_subset`], [`quasi_unit_disk`]) runs on one cell
//! binning: positions counting-sorted into square cells of side `radius`,
//! each vertex's neighbours found by scanning the 3x3 cell block around it.

use crate::{Graph, NodeId, ReserveLike};
use pacds_geom::{Point2, Rect, EPS};
use rand::Rng;

/// Builds the unit-disk graph of `points` with transmission radius `radius`
/// inside `bounds` (O(n + m) expected): [`unit_disk_csr`] into a fresh
/// graph.
///
/// ```
/// use pacds_geom::{Point2, Rect};
/// use pacds_graph::gen::unit_disk;
/// let pts = [Point2::new(0.0, 0.0), Point2::new(20.0, 0.0), Point2::new(60.0, 0.0)];
/// let g = unit_disk(Rect::paper_arena(), 25.0, &pts);
/// assert!(g.has_edge(0, 1) && !g.has_edge(0, 2));
/// ```
pub fn unit_disk(bounds: Rect, radius: f64, points: &[Point2]) -> Graph {
    let mut g = Graph::default();
    unit_disk_csr(
        bounds,
        radius,
        points,
        None,
        &mut g,
        &mut UnitDiskScratch::new(),
    );
    g
}

/// Reusable scratch buffers of the cell binning: the counting-sort cell
/// index (starts / cursor / item arrays). One instance amortises all grid
/// allocations across the update intervals of a Monte-Carlo run.
#[derive(Debug, Clone, Default)]
pub struct UnitDiskScratch {
    starts: Vec<u32>,
    cursor: Vec<u32>,
    items: Vec<u32>,
}

impl ReserveLike for UnitDiskScratch {
    fn reserve_like(&mut self, other: &Self) {
        self.starts.reserve_like(&other.starts);
        self.cursor.reserve_like(&other.cursor);
        self.items.reserve_like(&other.items);
    }
}

impl UnitDiskScratch {
    /// Empty scratch; buffers grow to their high-water mark on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The cell binning behind every unit-disk build. Counting-sorts the live
/// vertices of `0..len` (vertex `i` at `at(i)`) into square cells of side
/// `radius` over the area `(x0, y0, x1, y1)`, a position outside it binned
/// into the nearest border cell, then writes each live vertex's neighbours
/// within `radius`
/// (the rim-inclusive `r² + EPS` test, on true positions) into `out` as
/// ascending rows. A vertex that is not `live` keeps an empty row and
/// is nobody's neighbour.
///
/// All storage comes from `out` and `scratch`: zero heap allocations once
/// both are warm.
fn bin_and_scan(
    (x0, y0, x1, y1): (f64, f64, f64, f64),
    radius: f64,
    len: usize,
    at: impl Fn(usize) -> Point2,
    live: impl Fn(usize) -> bool,
    out: &mut Graph,
    scratch: &mut UnitDiskScratch,
) {
    assert!(radius > 0.0, "transmission radius must be positive");
    let (offsets, targets) = out.parts_mut();
    offsets.clear();
    targets.clear();
    offsets.reserve(len + 1);
    offsets.push(0);
    if len == 0 {
        return;
    }

    let cell = radius;
    let nx = ((x1 - x0) / cell).ceil().max(1.0) as usize;
    let ny = ((y1 - y0) / cell).ceil().max(1.0) as usize;
    let ncells = nx * ny;
    // A negative offset saturates to cell 0 in the cast, and `min` caps
    // one past the far side: outside points land in the border cells.
    let cell_xy = |p: Point2| -> (usize, usize) {
        (
            (((p.x - x0) / cell) as usize).min(nx - 1),
            (((p.y - y0) / cell) as usize).min(ny - 1),
        )
    };

    let UnitDiskScratch {
        starts,
        cursor,
        items,
    } = scratch;
    starts.clear();
    starts.resize(ncells + 1, 0);
    for i in (0..len).filter(|&i| live(i)) {
        let (cx, cy) = cell_xy(at(i));
        starts[cy * nx + cx + 1] += 1;
    }
    for c in 0..ncells {
        starts[c + 1] += starts[c];
    }
    cursor.clear();
    cursor.extend_from_slice(starts);
    items.clear();
    items.resize(starts[ncells] as usize, 0);
    for i in (0..len).filter(|&i| live(i)) {
        let (cx, cy) = cell_xy(at(i));
        let c = cy * nx + cx;
        items[cursor[c] as usize] = i as u32;
        cursor[c] += 1;
    }

    // Fill pass: scan the 3x3 cell block around each live vertex, pushing
    // hits into the shared target array, then sort that row in place
    // (sort_unstable on a slice allocates nothing).
    let r2 = radius * radius + EPS;
    for i in 0..len {
        let row_start = targets.len();
        if live(i) {
            let p = at(i);
            let (cx, cy) = cell_xy(p);
            // The up-to-three cells of each grid row are consecutive cell
            // indices, so their binned items form one contiguous slice.
            let (xlo, xhi) = (cx.saturating_sub(1), (cx + 1).min(nx - 1));
            let (ylo, yhi) = (cy.saturating_sub(1), (cy + 1).min(ny - 1));
            for y in ylo..=yhi {
                let lo = starts[y * nx + xlo] as usize;
                let hi = starts[y * nx + xhi + 1] as usize;
                for &j in &items[lo..hi] {
                    if j as usize != i && at(j as usize).distance2(p) <= r2 {
                        targets.push(j);
                    }
                }
            }
            targets[row_start..].sort_unstable();
        }
        offsets.push(targets.len() as u32);
    }
}

/// Rebuilds `out` in place as the unit-disk graph of `points`.
///
/// Cells are laid over `bounds`; out-of-bounds points are binned into its
/// border cells. Rows are sorted ascending and use the rim-inclusive
/// `r² + EPS` test. Vertices flagged in `off` (switched-off hosts) are
/// isolated: they keep their slot but contribute no edges in either
/// direction.
///
/// All storage is taken from `out` and `scratch`; once both have reached
/// their high-water capacity, a call performs **zero heap allocations** —
/// this is the interval-loop entry point of the zero-allocation hot path.
///
/// # Panics
/// Panics if `radius <= 0` or `off` has the wrong length.
pub fn unit_disk_csr(
    bounds: Rect,
    radius: f64,
    points: &[Point2],
    off: Option<&[bool]>,
    out: &mut Graph,
    scratch: &mut UnitDiskScratch,
) {
    if let Some(off) = off {
        assert_eq!(
            off.len(),
            points.len(),
            "off-mask length must equal point count"
        );
    }
    bin_and_scan(
        (bounds.x0, bounds.y0, bounds.x1, bounds.y1),
        radius,
        points.len(),
        |i| points[i],
        |i| !off.is_some_and(|o| o[i]),
        out,
        scratch,
    );
}

/// Rebuilds `out` in place as the unit-disk graph **induced by `subset`**,
/// with local vertex `i` standing for point `subset[i]`.
///
/// Uses the same rim-inclusive `r² + EPS` test as [`unit_disk`] /
/// [`unit_disk_csr`], binned over the subset's own bounding box, so the
/// result is exactly the subgraph of the global unit-disk graph induced by
/// `subset` (relabelled). Rows are sorted ascending in local ids; when
/// `subset` is ascending, local order therefore agrees with global id
/// order. This is the per-tile step of the streaming large-`n` build: the
/// whole-graph adjacency is never materialised.
///
/// All storage comes from `out` and `scratch`; zero heap allocations once
/// both are warm.
///
/// # Panics
/// Panics if `radius <= 0` or `subset` indexes out of `points`.
pub fn unit_disk_csr_subset(
    radius: f64,
    points: &[Point2],
    subset: &[u32],
    out: &mut Graph,
    scratch: &mut UnitDiskScratch,
) {
    let (mut x0, mut y0) = (f64::INFINITY, f64::INFINITY);
    let (mut x1, mut y1) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
    for &i in subset {
        let p = points[i as usize];
        x0 = x0.min(p.x);
        y0 = y0.min(p.y);
        x1 = x1.max(p.x);
        y1 = y1.max(p.y);
    }
    bin_and_scan(
        (x0, y0, x1, y1),
        radius,
        subset.len(),
        |li| points[subset[li] as usize],
        |_| true,
        out,
        scratch,
    );
}

/// Brute-force unit-disk graph (O(n^2)); reference implementation for tests.
pub fn unit_disk_naive(radius: f64, points: &[Point2]) -> Graph {
    let mut edges = Vec::new();
    for i in 0..points.len() {
        for j in i + 1..points.len() {
            if points[i].within(points[j], radius) {
                edges.push((i as NodeId, j as NodeId));
            }
        }
    }
    Graph::from_edges(points.len(), &edges)
}

/// Quasi unit-disk graph: pairs within `r_min` are always connected, pairs
/// beyond `r_max` never, and in between the link exists with probability
/// falling linearly from 1 (at `r_min`) to 0 (at `r_max`) — a standard
/// model of radio irregularity. `r_min = r_max` degenerates to the exact
/// unit-disk graph.
pub fn quasi_unit_disk<R: Rng + ?Sized>(
    rng: &mut R,
    bounds: Rect,
    r_min: f64,
    r_max: f64,
    points: &[Point2],
) -> Graph {
    assert!(0.0 < r_min && r_min <= r_max, "need 0 < r_min <= r_max");
    // Each candidate pair (i, j > i) comes in (i, j) order, so the RNG
    // draws follow that order.
    let edges: Vec<_> = unit_disk(bounds, r_max, points)
        .edges()
        .filter(|&(i, j)| {
            let d = points[i as usize].distance(points[j as usize]);
            let p = if d <= r_min {
                1.0
            } else {
                (r_max - d) / (r_max - r_min)
            };
            p >= 1.0 || rng.random_range(0.0..1.0) < p
        })
        .collect();
    Graph::from_edges(points.len(), &edges)
}

/// Erdős–Rényi G(n, p).
pub fn gnp<R: Rng + ?Sized>(rng: &mut R, n: usize, p: f64) -> Graph {
    let mut edges = Vec::new();
    for u in 0..n as NodeId {
        for v in u + 1..n as NodeId {
            if rng.random_range(0.0..1.0) < p {
                edges.push((u, v));
            }
        }
    }
    Graph::from_edges(n, &edges)
}

/// A connected G(n, p): re-samples until connected (up to `max_tries`), then
/// falls back to threading a random spanning path through the last sample.
pub fn connected_gnp<R: Rng + ?Sized>(rng: &mut R, n: usize, p: f64, max_tries: usize) -> Graph {
    for _ in 0..max_tries {
        let g = gnp(rng, n, p);
        if crate::algo::is_connected(&g) {
            return g;
        }
    }
    let mut edges: Vec<_> = gnp(rng, n, p).edges().collect();
    let mut order: Vec<NodeId> = (0..n as NodeId).collect();
    // Fisher-Yates shuffle for a random spanning path.
    for i in (1..n).rev() {
        order.swap(i, rng.random_range(0..=i));
    }
    edges.extend(order.windows(2).map(|w| (w[0], w[1])));
    Graph::from_edges(n, &edges)
}

/// Path graph `0 - 1 - ... - n-1`.
pub fn path(n: usize) -> Graph {
    let edges: Vec<_> = (1..n as NodeId).map(|v| (v - 1, v)).collect();
    Graph::from_edges(n, &edges)
}

/// Cycle graph on `n >= 3` vertices.
pub fn cycle(n: usize) -> Graph {
    assert!(n >= 3, "a cycle needs at least 3 vertices");
    let mut edges: Vec<_> = path(n).edges().collect();
    edges.push((0, n as NodeId - 1));
    Graph::from_edges(n, &edges)
}

/// Star graph: vertex 0 adjacent to all others.
pub fn star(n: usize) -> Graph {
    let edges: Vec<_> = (1..n as NodeId).map(|v| (0, v)).collect();
    Graph::from_edges(n, &edges)
}

/// Complete graph `K_n`.
pub fn complete(n: usize) -> Graph {
    let edges: Vec<_> = (0..n as NodeId)
        .flat_map(|u| (u + 1..n as NodeId).map(move |v| (u, v)))
        .collect();
    Graph::from_edges(n, &edges)
}

/// `rows x cols` grid graph (4-neighbour lattice).
pub fn grid(rows: usize, cols: usize) -> Graph {
    let id = |r: usize, c: usize| (r * cols + c) as NodeId;
    let mut edges = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                edges.push((id(r, c), id(r, c + 1)));
            }
            if r + 1 < rows {
                edges.push((id(r, c), id(r + 1, c)));
            }
        }
    }
    Graph::from_edges(rows * cols, &edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo;
    use pacds_geom::placement;
    use rand::SeedableRng;

    #[test]
    fn unit_disk_matches_naive() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(33);
        for n in [0usize, 1, 2, 30, 120] {
            let pts = placement::uniform_points(&mut rng, Rect::paper_arena(), n);
            let fast = unit_disk(Rect::paper_arena(), 25.0, &pts);
            let slow = unit_disk_naive(25.0, &pts);
            assert_eq!(fast, slow, "n={n}");
        }
    }

    #[test]
    fn unit_disk_csr_matches_unit_disk() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(35);
        let mut out = Graph::default();
        let mut scratch = UnitDiskScratch::new();
        for n in [0usize, 1, 2, 30, 120, 300] {
            let pts = placement::uniform_points(&mut rng, Rect::paper_arena(), n);
            unit_disk_csr(
                Rect::paper_arena(),
                25.0,
                &pts,
                None,
                &mut out,
                &mut scratch,
            );
            let reference = unit_disk_naive(25.0, &pts);
            assert_eq!(out, reference, "n={n}");
        }
    }

    #[test]
    fn unit_disk_csr_off_mask_isolates_hosts() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(36);
        let pts = placement::uniform_points(&mut rng, Rect::paper_arena(), 90);
        let mut off = vec![false; 90];
        for i in [0usize, 13, 13, 44, 89] {
            off[i] = true;
        }
        let mut out = Graph::default();
        let mut scratch = UnitDiskScratch::new();
        unit_disk_csr(
            Rect::paper_arena(),
            25.0,
            &pts,
            Some(&off),
            &mut out,
            &mut scratch,
        );
        let mut reference = Graph::default();
        reference.rebuild_from_masked(&unit_disk(Rect::paper_arena(), 25.0, &pts), &off);
        assert_eq!(out, reference);
        assert_eq!(out.degree(13), 0);
    }

    #[test]
    fn unit_disk_csr_scratch_reuse_across_varied_sizes() {
        // Alternating sizes must not leave stale cells/items behind.
        let mut rng = rand::rngs::StdRng::seed_from_u64(37);
        let mut out = Graph::default();
        let mut scratch = UnitDiskScratch::new();
        for n in [200usize, 10, 150, 1, 80] {
            let pts = placement::uniform_points(&mut rng, Rect::paper_arena(), n);
            unit_disk_csr(
                Rect::paper_arena(),
                25.0,
                &pts,
                None,
                &mut out,
                &mut scratch,
            );
            assert_eq!(out, unit_disk(Rect::paper_arena(), 25.0, &pts), "n={n}");
        }
    }

    #[test]
    fn unit_disk_csr_out_of_bounds_points() {
        // Clamped binning must still find true-coordinate neighbours.
        let pts = vec![Point2::new(-5.0, 50.0), Point2::new(3.0, 50.0)];
        let mut out = Graph::default();
        unit_disk_csr(
            Rect::paper_arena(),
            25.0,
            &pts,
            None,
            &mut out,
            &mut UnitDiskScratch::new(),
        );
        assert!(out.has_edge(0, 1));
    }

    #[test]
    fn unit_disk_csr_subset_is_the_induced_subgraph() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(53);
        let pts = placement::uniform_points(&mut rng, Rect::paper_arena(), 200);
        let reference = unit_disk(Rect::paper_arena(), 25.0, &pts);
        let mut out = Graph::default();
        let mut scratch = UnitDiskScratch::new();
        // A few subsets: empty, singleton, every third point, everything.
        let subsets: Vec<Vec<u32>> = vec![
            vec![],
            vec![17],
            (0..200u32).step_by(3).collect(),
            (0..200u32).collect(),
        ];
        for subset in &subsets {
            unit_disk_csr_subset(25.0, &pts, subset, &mut out, &mut scratch);
            assert_eq!(out.n(), subset.len());
            for (li, &gi) in subset.iter().enumerate() {
                let expected: Vec<u32> = subset
                    .iter()
                    .enumerate()
                    .filter(|&(lj, &gj)| lj != li && reference.has_edge(gi, gj))
                    .map(|(lj, _)| lj as u32)
                    .collect();
                assert_eq!(out.neighbors(li as NodeId), &expected[..], "local {li}");
            }
        }
    }

    #[test]
    fn unit_disk_edges_respect_radius() {
        let pts = vec![
            Point2::new(0.0, 0.0),
            Point2::new(24.0, 0.0),
            Point2::new(50.0, 0.0),
        ];
        let g = unit_disk(Rect::paper_arena(), 25.0, &pts);
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(0, 2));
        assert!(!g.has_edge(1, 2)); // distance 26 > 25
    }

    #[test]
    fn unit_disk_rim_distance() {
        let pts = vec![Point2::new(0.0, 0.0), Point2::new(25.0, 0.0)];
        let g = unit_disk(Rect::paper_arena(), 25.0, &pts);
        assert!(g.has_edge(0, 1), "rim distance is inclusive");
    }

    #[test]
    fn quasi_udg_degenerates_to_udg() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(44);
        let pts = placement::uniform_points(&mut rng, Rect::paper_arena(), 50);
        let q = quasi_unit_disk(&mut rng, Rect::paper_arena(), 25.0, 25.0, &pts);
        let u = unit_disk(Rect::paper_arena(), 25.0, &pts);
        assert_eq!(q, u);
    }

    #[test]
    fn quasi_udg_respects_the_bands() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(45);
        let pts = placement::uniform_points(&mut rng, Rect::paper_arena(), 80);
        let g = quasi_unit_disk(&mut rng, Rect::paper_arena(), 15.0, 30.0, &pts);
        for i in 0..pts.len() {
            for j in i + 1..pts.len() {
                let d = pts[i].distance(pts[j]);
                let e = g.has_edge(i as NodeId, j as NodeId);
                if d <= 15.0 {
                    assert!(e, "certain band must connect ({i},{j}) at {d}");
                }
                if d > 30.0 {
                    assert!(!e, "outside r_max must not connect ({i},{j}) at {d}");
                }
            }
        }
        // The probabilistic band should produce a mix (statistically).
        let inner = unit_disk_naive(15.0, &pts).m();
        let outer = unit_disk_naive(30.0, &pts).m();
        assert!(g.m() > inner && g.m() < outer);
    }

    #[test]
    fn quasi_udg_is_deterministic_per_seed() {
        let pts = {
            let mut rng = rand::rngs::StdRng::seed_from_u64(46);
            placement::uniform_points(&mut rng, Rect::paper_arena(), 40)
        };
        let a = quasi_unit_disk(
            &mut rand::rngs::StdRng::seed_from_u64(9),
            Rect::paper_arena(),
            15.0,
            30.0,
            &pts,
        );
        let b = quasi_unit_disk(
            &mut rand::rngs::StdRng::seed_from_u64(9),
            Rect::paper_arena(),
            15.0,
            30.0,
            &pts,
        );
        assert_eq!(a, b);
    }

    #[test]
    fn quasi_udg_draws_are_pinned() {
        // Each pair in the probabilistic band takes one RNG draw in (i, j)
        // order; a change to that order moves the edge count and digest.
        let mut got = Vec::new();
        for seed in [61u64, 62] {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let pts = placement::uniform_points(&mut rng, Rect::square(200.0), 300);
            let g = quasi_unit_disk(&mut rng, Rect::square(200.0), 15.0, 30.0, &pts);
            got.push((seed, g.m(), crate::graph_digest(&g)));
        }
        assert_eq!(
            got,
            [
                (61, 1679, 11300480828073521646),
                (62, 1694, 18434469025950686498)
            ]
        );
    }

    #[test]
    fn gnp_extremes() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        assert_eq!(gnp(&mut rng, 10, 0.0).m(), 0);
        assert_eq!(gnp(&mut rng, 10, 1.0).m(), 45);
    }

    #[test]
    fn connected_gnp_is_connected() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        for _ in 0..20 {
            let g = connected_gnp(&mut rng, 25, 0.05, 5);
            assert!(algo::is_connected(&g));
        }
    }

    #[test]
    fn deterministic_families() {
        assert_eq!(path(5).m(), 4);
        assert_eq!(cycle(5).m(), 5);
        assert_eq!(star(5).m(), 4);
        assert_eq!(complete(5).m(), 10);
        assert!(complete(5).is_complete());
        let g = grid(3, 4);
        assert_eq!(g.n(), 12);
        assert_eq!(g.m(), 3 * 3 + 2 * 4); // horizontal 3*3, vertical 2*4
        assert!(algo::is_connected(&g));
        assert_eq!(algo::diameter(&g), Some(5));
    }

    #[test]
    #[should_panic]
    fn tiny_cycle_panics() {
        cycle(2);
    }
}
