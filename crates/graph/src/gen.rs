//! Graph generators.
//!
//! [`unit_disk`] is the paper's network model: hosts within mutual
//! transmission range are connected. The deterministic families exist for
//! tests, and [`gnp`] provides a non-geometric random baseline.
//!
//! Every unit-disk build ([`unit_disk`], [`unit_disk_csr`],
//! [`unit_disk_csr_subset`], [`quasi_unit_disk`]) runs on one cell
//! binning: positions counting-sorted, stably, into square cells of side
//! `radius` (row-major), and each vertex's neighbours found by scanning the
//! 3x3 cell block around it. The scan is branch-free: it writes every
//! candidate and advances the row cursor by the rim test. Whole-graph
//! builds keep the callers' vertex order and sort each row;
//! [`unit_disk_csr_subset`] labels the subset in the binning's own cell
//! order, so a block's three cell rows are consecutive, increasing ranges
//! of local ids and its rows come out ascending unsorted.

use crate::{Graph, NodeId, ReserveLike};
use pacds_geom::{Point2, Rect, EPS};
use rand::Rng;
use std::ops::Range;

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
/// index (starts / cursor arrays) and the binned labels and positions.
/// One instance amortises all grid allocations across the update
/// intervals of a Monte-Carlo run.
#[derive(Debug, Clone, Default)]
pub struct UnitDiskScratch {
    starts: Vec<u32>,
    cursor: Vec<u32>,
    /// Binned slot `k`'s vertex id, cell by cell.
    items: Vec<u32>,
    /// Binned slot `k`'s position, cell by cell.
    pos: Vec<Point2>,
}

impl ReserveLike for UnitDiskScratch {
    fn reserve_like(&mut self, other: &Self) {
        self.starts.reserve_like(&other.starts);
        self.cursor.reserve_like(&other.cursor);
        self.items.reserve_like(&other.items);
        self.pos.reserve_like(&other.pos);
    }
}

impl UnitDiskScratch {
    /// Empty scratch; buffers grow to their high-water mark on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Square cells of side `radius` laid row-major over an area, a position
/// outside it binned into the nearest border cell.
struct Cells {
    x0: f64,
    y0: f64,
    side: f64,
    nx: usize,
    ny: usize,
}

impl Cells {
    fn new((x0, y0, x1, y1): (f64, f64, f64, f64), radius: f64) -> Self {
        Self {
            x0,
            y0,
            side: radius,
            nx: ((x1 - x0) / radius).ceil().max(1.0) as usize,
            ny: ((y1 - y0) / radius).ceil().max(1.0) as usize,
        }
    }

    /// The cell column and row of `p`. A negative offset saturates to
    /// cell 0 in the cast, and `min` caps one past the far side.
    #[inline]
    fn cell_xy(&self, p: Point2) -> (usize, usize) {
        (
            (((p.x - self.x0) / self.side) as usize).min(self.nx - 1),
            (((p.y - self.y0) / self.side) as usize).min(self.ny - 1),
        )
    }

    /// Counting-sorts the live vertices of `0..len` (vertex `i` at
    /// `at(i)`) into the cells, stable: cell `c` holds the binned slots
    /// `starts[c]..starts[c + 1]`, slot `k` standing for vertex
    /// `items[k] = id(i)` at `pos[k] = at(i)`.
    fn bin(
        &self,
        len: usize,
        at: impl Fn(usize) -> Point2,
        live: impl Fn(usize) -> bool,
        id: impl Fn(usize) -> u32,
        scratch: &mut UnitDiskScratch,
    ) {
        let UnitDiskScratch {
            starts,
            cursor,
            items,
            pos,
        } = scratch;
        let ncells = self.nx * self.ny;
        let cell = |p: Point2| {
            let (cx, cy) = self.cell_xy(p);
            cy * self.nx + cx
        };
        starts.clear();
        starts.resize(ncells + 1, 0);
        for i in (0..len).filter(|&i| live(i)) {
            starts[cell(at(i)) + 1] += 1;
        }
        for c in 0..ncells {
            starts[c + 1] += starts[c];
        }
        cursor.clear();
        cursor.extend_from_slice(starts);
        let binned = starts[ncells] as usize;
        items.clear();
        items.resize(binned, 0);
        pos.clear();
        pos.resize(binned, Point2::new(0.0, 0.0));
        for i in (0..len).filter(|&i| live(i)) {
            let p = at(i);
            let slot = &mut cursor[cell(p)];
            items[*slot as usize] = id(i);
            pos[*slot as usize] = p;
            *slot += 1;
        }
    }

    /// The binned slots of the 3x3 cell block around cell `(cx, cy)`: one
    /// range per cell row, since the up-to-three cells of a row are
    /// consecutive cell indices. The ranges ascend; a row off the grid is
    /// empty.
    #[inline]
    fn block(&self, starts: &[u32], cx: usize, cy: usize) -> [Range<usize>; 3] {
        let (xlo, xhi) = (cx.saturating_sub(1), (cx + 1).min(self.nx - 1));
        let row =
            |y: usize| starts[y * self.nx + xlo] as usize..starts[y * self.nx + xhi + 1] as usize;
        [
            if cy > 0 { row(cy - 1) } else { 0..0 },
            row(cy),
            if cy + 1 < self.ny { row(cy + 1) } else { 0..0 },
        ]
    }
}

/// Appends to `targets`, in slot order, `label(k)` for every binned slot
/// `k` of `block` whose position lies within the rim-inclusive radius of
/// `p` (`d² <= r2`), except the slot labelled `me`. Branch-free: every
/// candidate is written, and the row cursor advances by the rim test.
#[inline]
fn scan_block(
    targets: &mut Vec<u32>,
    block: &[Range<usize>; 3],
    pos: &[Point2],
    label: impl Fn(usize) -> u32,
    me: u32,
    p: Point2,
    r2: f64,
) {
    let row = targets.len();
    let candidates: usize = block.iter().map(ExactSizeIterator::len).sum();
    targets.resize(row + candidates, 0);
    let buf = &mut targets[row..];
    let mut w = 0;
    for range in block {
        for (k, q) in range.clone().zip(&pos[range.clone()]) {
            let j = label(k);
            buf[w] = j;
            w += usize::from((j != me) & (q.distance2(p) <= r2));
        }
    }
    targets.truncate(row + w);
}

/// Clears `out` down to its leading 0 offset, with room for `len` rows,
/// and hands back its offset and target arrays.
fn reset(out: &mut Graph, len: usize) -> (&mut Vec<u32>, &mut Vec<NodeId>) {
    let (offsets, targets) = out.parts_mut();
    offsets.clear();
    targets.clear();
    offsets.reserve(len + 1);
    offsets.push(0);
    (offsets, targets)
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
    assert!(radius > 0.0, "transmission radius must be positive");
    if let Some(off) = off {
        assert_eq!(
            off.len(),
            points.len(),
            "off-mask length must equal point count"
        );
    }
    let live = |i: usize| !off.is_some_and(|o| o[i]);
    let (offsets, targets) = reset(out, points.len());
    if points.is_empty() {
        return;
    }
    let cells = Cells::new((bounds.x0, bounds.y0, bounds.x1, bounds.y1), radius);
    cells.bin(points.len(), |i| points[i], live, |i| i as u32, scratch);
    let UnitDiskScratch {
        starts, items, pos, ..
    } = scratch;

    // Rows in the callers' order: scan the 3x3 block around each live
    // vertex, then sort the row in place (sort_unstable on a slice
    // allocates nothing).
    let r2 = radius * radius + EPS;
    for (i, &p) in points.iter().enumerate() {
        if live(i) {
            let (cx, cy) = cells.cell_xy(p);
            let row = targets.len();
            let block = cells.block(starts, cx, cy);
            scan_block(targets, &block, pos, |k| items[k], i as u32, p, r2);
            targets[row..].sort_unstable();
        }
        offsets.push(targets.len() as u32);
    }
}

/// Rebuilds `out` in place as the unit-disk graph **induced by `subset`**,
/// and permutes `subset`, stably, into the row-major cell order of the
/// build's binning: afterwards local vertex `k` stands for point
/// `subset[k]`.
///
/// Uses the same rim-inclusive `r² + EPS` test as [`unit_disk`] /
/// [`unit_disk_csr`], binned over the subset's own bounding box, so the
/// result is exactly the subgraph of the global unit-disk graph induced by
/// `subset` (relabelled). Because local ids follow the cells, the three
/// cell rows of a 3x3 block are consecutive, increasing ranges of local
/// ids, so every row comes out ascending without a sort. This is the
/// per-tile step of the streaming large-`n` build: the whole-graph
/// adjacency is never materialised.
///
/// All storage comes from `out` and `scratch`; zero heap allocations once
/// both are warm.
///
/// # Panics
/// Panics if `radius <= 0` or `subset` indexes out of `points`.
pub fn unit_disk_csr_subset(
    radius: f64,
    points: &[Point2],
    subset: &mut [u32],
    out: &mut Graph,
    scratch: &mut UnitDiskScratch,
) {
    assert!(radius > 0.0, "transmission radius must be positive");
    let (offsets, targets) = reset(out, subset.len());
    if subset.is_empty() {
        return;
    }
    let (mut x0, mut y0) = (f64::INFINITY, f64::INFINITY);
    let (mut x1, mut y1) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
    for &i in subset.iter() {
        let p = points[i as usize];
        x0 = x0.min(p.x);
        y0 = y0.min(p.y);
        x1 = x1.max(p.x);
        y1 = y1.max(p.y);
    }
    let cells = Cells::new((x0, y0, x1, y1), radius);
    cells.bin(
        subset.len(),
        |li| points[subset[li] as usize],
        |_| true,
        |li| subset[li],
        scratch,
    );
    let UnitDiskScratch {
        starts, items, pos, ..
    } = scratch;
    subset.copy_from_slice(items);

    // Rows in local (= binned) order, cell by cell: every host of a cell
    // shares its 3x3 block, whose slots are the local ids themselves.
    let r2 = radius * radius + EPS;
    for cy in 0..cells.ny {
        for cx in 0..cells.nx {
            let c = cy * cells.nx + cx;
            let block = cells.block(starts, cx, cy);
            for k in starts[c] as usize..starts[c + 1] as usize {
                scan_block(targets, &block, pos, |j| j as u32, k as u32, pos[k], r2);
                offsets.push(targets.len() as u32);
            }
        }
    }
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
        for input in &subsets {
            let mut subset = input.clone();
            unit_disk_csr_subset(25.0, &pts, &mut subset, &mut out, &mut scratch);
            assert_eq!(out.n(), subset.len());
            let mut sorted = subset.clone();
            sorted.sort_unstable();
            assert_eq!(&sorted, input, "subset comes back permuted");
            for (li, &gi) in subset.iter().enumerate() {
                let row = out.neighbors(li as NodeId);
                assert!(row.windows(2).all(|w| w[0] < w[1]), "local {li} ascending");
                let mut got: Vec<u32> = row.iter().map(|&lj| subset[lj as usize]).collect();
                got.sort_unstable();
                let expected: Vec<u32> = reference
                    .neighbors(gi)
                    .iter()
                    .copied()
                    .filter(|g| input.binary_search(g).is_ok())
                    .collect();
                assert_eq!(got, expected, "local {li}");
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
