//! Graph generators.
//!
//! [`unit_disk`] is the paper's network model: hosts within mutual
//! transmission range are connected. The deterministic families exist for
//! tests, and [`gnp`] provides a non-geometric random baseline.

use crate::{CsrGraph, Graph, NodeId, ReserveLike};
use pacds_geom::{Point2, Rect, SpatialGrid, EPS};
use rand::Rng;

/// Builds the unit-disk graph of `points` with transmission radius `radius`
/// inside `bounds`, using a spatial grid (O(n + m) expected).
///
/// ```
/// use pacds_geom::{Point2, Rect};
/// use pacds_graph::gen::unit_disk;
/// let pts = [Point2::new(0.0, 0.0), Point2::new(20.0, 0.0), Point2::new(60.0, 0.0)];
/// let g = unit_disk(Rect::paper_arena(), 25.0, &pts);
/// assert!(g.has_edge(0, 1) && !g.has_edge(0, 2));
/// ```
pub fn unit_disk(bounds: Rect, radius: f64, points: &[Point2]) -> Graph {
    let mut g = Graph::new(points.len());
    if points.is_empty() {
        return g;
    }
    let grid = SpatialGrid::build(bounds, radius, points);
    for (i, &p) in points.iter().enumerate() {
        grid.for_each_within(p, radius, i, |j| {
            if i < j {
                g.add_edge(i as NodeId, j as NodeId);
            }
        });
    }
    g
}

/// Reusable scratch buffers for [`unit_disk_csr`]: the counting-sort cell
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

/// Builds the unit-disk graph of `points` straight into CSR form, skipping
/// the intermediate adjacency-list [`Graph`] entirely.
///
/// Produces exactly the edge set of [`unit_disk`] (same clamped binning,
/// same rim-inclusive `r² + EPS` test), written into `out` with rows sorted
/// ascending. Vertices flagged in `off` (switched-off hosts) are isolated:
/// they keep their slot but contribute no edges in either direction.
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
    out: &mut CsrGraph,
    scratch: &mut UnitDiskScratch,
) {
    assert!(radius > 0.0, "transmission radius must be positive");
    if let Some(off) = off {
        assert_eq!(off.len(), points.len(), "off-mask length must equal point count");
    }
    let n = points.len();
    let (offsets, targets) = out.parts_mut();
    offsets.clear();
    targets.clear();
    offsets.reserve(n + 1);
    offsets.push(0);
    if n == 0 {
        return;
    }

    // Counting-sort binning, replicating SpatialGrid::build semantics:
    // cells of side `radius`, out-of-bounds points clamped for binning only.
    let cell = radius;
    let nx = (bounds.width() / cell).ceil().max(1.0) as usize;
    let ny = (bounds.height() / cell).ceil().max(1.0) as usize;
    let ncells = nx * ny;
    let is_off = |i: usize| off.is_some_and(|o| o[i]);
    let cell_of = |p: Point2| -> usize {
        let q = bounds.clamp(p);
        let cx = (((q.x - bounds.x0) / cell) as usize).min(nx - 1);
        let cy = (((q.y - bounds.y0) / cell) as usize).min(ny - 1);
        cy * nx + cx
    };

    let UnitDiskScratch {
        starts,
        cursor,
        items,
    } = scratch;
    starts.clear();
    starts.resize(ncells + 1, 0);
    for (i, &p) in points.iter().enumerate() {
        if !is_off(i) {
            starts[cell_of(p) + 1] += 1;
        }
    }
    for c in 0..ncells {
        starts[c + 1] += starts[c];
    }
    cursor.clear();
    cursor.extend_from_slice(starts);
    items.clear();
    items.resize(starts[ncells] as usize, 0);
    for (i, &p) in points.iter().enumerate() {
        if is_off(i) {
            continue;
        }
        let c = cell_of(p);
        items[cursor[c] as usize] = i as u32;
        cursor[c] += 1;
    }

    // Fill pass: scan the 3x3 cell block around each live vertex, pushing
    // hits into the shared target array, then sort that row in place
    // (sort_unstable on a slice allocates nothing).
    let r2 = radius * radius + EPS;
    for (i, &p) in points.iter().enumerate() {
        let row_start = targets.len();
        if !is_off(i) {
            let q = bounds.clamp(p);
            let cx = (((q.x - bounds.x0) / cell) as usize).min(nx - 1);
            let cy = (((q.y - bounds.y0) / cell) as usize).min(ny - 1);
            // The up-to-three cells of each grid row are consecutive cell
            // indices, so their binned items form one contiguous slice.
            let (xlo, xhi) = (cx.saturating_sub(1), (cx + 1).min(nx - 1));
            let (ylo, yhi) = (cy.saturating_sub(1), (cy + 1).min(ny - 1));
            for y in ylo..=yhi {
                let lo = starts[y * nx + xlo] as usize;
                let hi = starts[y * nx + xhi + 1] as usize;
                for &j in &items[lo..hi] {
                    if j as usize != i && points[j as usize].distance2(p) <= r2 {
                        targets.push(j);
                    }
                }
            }
            targets[row_start..].sort_unstable();
        }
        offsets.push(targets.len() as u32);
    }
}

/// A retained grid partition of a point set into rectangular tiles — the
/// ownership structure of the sharded CDS engine and the streaming
/// large-`n` unit-disk construction path ([`unit_disk_csr_subset`] builds
/// each tile's CSR directly, so the whole-graph adjacency never
/// materialises).
///
/// The partition domain is the bounding box of `bounds` *and* every point,
/// so out-of-bounds points (which [`unit_disk_csr`] bins by clamping) are
/// owned by a real tile and the halo-gathering distance argument stays
/// exact. Points are bucketed by counting sort in id order, so
/// [`TilePartition::owned`] lists are always ascending.
///
/// All buffers are retained: once warm, [`TilePartition::build`] and
/// [`TilePartition::gather_expanded`] perform zero heap allocations.
#[derive(Debug, Clone, Default)]
pub struct TilePartition {
    tx: usize,
    ty: usize,
    x0: f64,
    y0: f64,
    w: f64,
    h: f64,
    starts: Vec<u32>,
    cursor: Vec<u32>,
    items: Vec<u32>,
}

impl TilePartition {
    /// An empty partition; buffers grow to their high-water mark on use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Tile index along one axis; saturating at the edges, whole axis when
    /// the domain is degenerate.
    #[inline]
    fn axis_tile(c: f64, lo: f64, span: f64, k: usize) -> usize {
        if span <= 0.0 {
            return 0;
        }
        // Casting a negative f64 to usize saturates to 0.
        (((c - lo) / span * k as f64) as usize).min(k - 1)
    }

    /// Partitions `points` into a `tx` x `ty` tile grid covering `bounds`
    /// expanded to the points' bounding box.
    ///
    /// # Panics
    /// Panics if `tx` or `ty` is zero.
    pub fn build(&mut self, bounds: Rect, tx: usize, ty: usize, points: &[Point2]) {
        assert!(tx >= 1 && ty >= 1, "tile grid must be at least 1x1");
        let (mut x0, mut y0, mut x1, mut y1) = (bounds.x0, bounds.y0, bounds.x1, bounds.y1);
        for p in points {
            x0 = x0.min(p.x);
            y0 = y0.min(p.y);
            x1 = x1.max(p.x);
            y1 = y1.max(p.y);
        }
        self.tx = tx;
        self.ty = ty;
        self.x0 = x0;
        self.y0 = y0;
        self.w = x1 - x0;
        self.h = y1 - y0;
        let (w, h) = (self.w, self.h);
        let ncells = tx * ty;
        let tile_of = |p: &Point2| -> usize {
            Self::axis_tile(p.y, y0, h, ty) * tx + Self::axis_tile(p.x, x0, w, tx)
        };
        self.starts.clear();
        self.starts.resize(ncells + 1, 0);
        for p in points {
            self.starts[tile_of(p) + 1] += 1;
        }
        for c in 0..ncells {
            self.starts[c + 1] += self.starts[c];
        }
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.starts);
        self.items.clear();
        self.items.resize(points.len(), 0);
        for (i, p) in points.iter().enumerate() {
            let c = tile_of(p);
            self.items[self.cursor[c] as usize] = i as u32;
            self.cursor[c] += 1;
        }
    }

    /// Number of tiles (`tx * ty`).
    #[inline]
    pub fn tiles(&self) -> usize {
        self.tx * self.ty
    }

    /// The point ids owned by tile `t`, ascending.
    #[inline]
    pub fn owned(&self, t: usize) -> &[u32] {
        let lo = self.starts[t] as usize;
        let hi = self.starts[t + 1] as usize;
        &self.items[lo..hi]
    }

    /// Tile `t`'s rectangle as `(x0, y0, x1, y1)` (possibly degenerate).
    fn tile_span(&self, t: usize) -> (f64, f64, f64, f64) {
        let cx = (t % self.tx) as f64;
        let cy = (t / self.tx) as f64;
        let (tx, ty) = (self.tx as f64, self.ty as f64);
        (
            self.x0 + self.w * cx / tx,
            self.y0 + self.h * cy / ty,
            self.x0 + self.w * (cx + 1.0) / tx,
            self.y0 + self.h * (cy + 1.0) / ty,
        )
    }

    /// Collects into `out` (ascending) every point within distance `margin`
    /// of tile `t`'s rectangle — a superset of the points reachable from
    /// tile `t` in `h` hops when `margin >= h * sqrt(radius^2 + EPS)`. The
    /// test is slightly inflated so binning round-off can only widen the
    /// set (supersets are always safe halos).
    pub fn gather_expanded(&self, t: usize, margin: f64, points: &[Point2], out: &mut Vec<u32>) {
        out.clear();
        let (rx0, ry0, rx1, ry1) = self.tile_span(t);
        let m = margin * (1.0 + 1e-12) + 1e-9;
        let m2 = m * m;
        let cx_lo = Self::axis_tile(rx0 - m, self.x0, self.w, self.tx);
        let cx_hi = Self::axis_tile(rx1 + m, self.x0, self.w, self.tx);
        let cy_lo = Self::axis_tile(ry0 - m, self.y0, self.h, self.ty);
        let cy_hi = Self::axis_tile(ry1 + m, self.y0, self.h, self.ty);
        for cy in cy_lo..=cy_hi {
            // Contiguous tile indices per grid row: one slice of items.
            let lo = self.starts[cy * self.tx + cx_lo] as usize;
            let hi = self.starts[cy * self.tx + cx_hi + 1] as usize;
            for &i in &self.items[lo..hi] {
                let p = points[i as usize];
                let dx = (rx0 - p.x).max(p.x - rx1).max(0.0);
                let dy = (ry0 - p.y).max(p.y - ry1).max(0.0);
                if dx * dx + dy * dy <= m2 {
                    out.push(i);
                }
            }
        }
        out.sort_unstable();
    }
}

/// Builds the unit-disk graph **induced by `subset`** straight into CSR
/// form, with local vertex `i` standing for point `subset[i]`.
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
    out: &mut CsrGraph,
    scratch: &mut UnitDiskScratch,
) {
    assert!(radius > 0.0, "transmission radius must be positive");
    let n = subset.len();
    let (offsets, targets) = out.parts_mut();
    offsets.clear();
    targets.clear();
    offsets.reserve(n + 1);
    offsets.push(0);
    if n == 0 {
        return;
    }

    let (mut x0, mut y0, mut x1, mut y1) = (f64::INFINITY, f64::INFINITY, f64::NEG_INFINITY, f64::NEG_INFINITY);
    for &i in subset {
        let p = points[i as usize];
        x0 = x0.min(p.x);
        y0 = y0.min(p.y);
        x1 = x1.max(p.x);
        y1 = y1.max(p.y);
    }
    let cell = radius;
    let nx = ((x1 - x0) / cell).ceil().max(1.0) as usize;
    let ny = ((y1 - y0) / cell).ceil().max(1.0) as usize;
    let ncells = nx * ny;
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
    for &i in subset {
        let (cx, cy) = cell_xy(points[i as usize]);
        starts[cy * nx + cx + 1] += 1;
    }
    for c in 0..ncells {
        starts[c + 1] += starts[c];
    }
    cursor.clear();
    cursor.extend_from_slice(starts);
    items.clear();
    items.resize(n, 0);
    for (li, &i) in subset.iter().enumerate() {
        let (cx, cy) = cell_xy(points[i as usize]);
        let c = cy * nx + cx;
        items[cursor[c] as usize] = li as u32;
        cursor[c] += 1;
    }

    let r2 = radius * radius + EPS;
    for (li, &i) in subset.iter().enumerate() {
        let row_start = targets.len();
        let p = points[i as usize];
        let (cx, cy) = cell_xy(p);
        let (xlo, xhi) = (cx.saturating_sub(1), (cx + 1).min(nx - 1));
        let (ylo, yhi) = (cy.saturating_sub(1), (cy + 1).min(ny - 1));
        for y in ylo..=yhi {
            let lo = starts[y * nx + xlo] as usize;
            let hi = starts[y * nx + xhi + 1] as usize;
            for &lj in &items[lo..hi] {
                if lj as usize != li && points[subset[lj as usize] as usize].distance2(p) <= r2 {
                    targets.push(lj);
                }
            }
        }
        targets[row_start..].sort_unstable();
        offsets.push(targets.len() as u32);
    }
}

/// Brute-force unit-disk graph (O(n^2)); reference implementation for tests.
pub fn unit_disk_naive(radius: f64, points: &[Point2]) -> Graph {
    let mut g = Graph::new(points.len());
    for i in 0..points.len() {
        for j in i + 1..points.len() {
            if points[i].within(points[j], radius) {
                g.add_edge(i as NodeId, j as NodeId);
            }
        }
    }
    g
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
    let mut g = Graph::new(points.len());
    if points.is_empty() {
        return g;
    }
    let grid = SpatialGrid::build(bounds, r_max, points);
    // Collect candidate pairs first so the RNG consumption order is
    // deterministic in (i, j) order regardless of grid iteration details.
    let mut candidates: Vec<(usize, usize, f64)> = Vec::new();
    for i in 0..points.len() {
        grid.for_each_within(points[i], r_max, i, |j| {
            if i < j {
                candidates.push((i, j, points[i].distance(points[j])));
            }
        });
    }
    candidates.sort_unstable_by_key(|a| (a.0, a.1));
    for (i, j, d) in candidates {
        let p = if d <= r_min {
            1.0
        } else {
            (r_max - d) / (r_max - r_min)
        };
        if p >= 1.0 || rng.random_range(0.0..1.0) < p {
            g.add_edge(i as NodeId, j as NodeId);
        }
    }
    g
}

/// Erdős–Rényi G(n, p).
pub fn gnp<R: Rng + ?Sized>(rng: &mut R, n: usize, p: f64) -> Graph {
    let mut g = Graph::new(n);
    for u in 0..n as NodeId {
        for v in u + 1..n as NodeId {
            if rng.random_range(0.0..1.0) < p {
                g.add_edge(u, v);
            }
        }
    }
    g
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
    let mut g = gnp(rng, n, p);
    let mut order: Vec<NodeId> = (0..n as NodeId).collect();
    // Fisher-Yates shuffle for a random spanning path.
    for i in (1..n).rev() {
        order.swap(i, rng.random_range(0..=i));
    }
    for w in order.windows(2) {
        g.add_edge(w[0], w[1]);
    }
    g
}

/// Path graph `0 - 1 - ... - n-1`.
pub fn path(n: usize) -> Graph {
    let mut g = Graph::new(n);
    for v in 1..n as NodeId {
        g.add_edge(v - 1, v);
    }
    g
}

/// Cycle graph on `n >= 3` vertices.
pub fn cycle(n: usize) -> Graph {
    assert!(n >= 3, "a cycle needs at least 3 vertices");
    let mut g = path(n);
    g.add_edge(0, n as NodeId - 1);
    g
}

/// Star graph: vertex 0 adjacent to all others.
pub fn star(n: usize) -> Graph {
    let mut g = Graph::new(n);
    for v in 1..n as NodeId {
        g.add_edge(0, v);
    }
    g
}

/// Complete graph `K_n`.
pub fn complete(n: usize) -> Graph {
    let mut g = Graph::new(n);
    for u in 0..n as NodeId {
        for v in u + 1..n as NodeId {
            g.add_edge(u, v);
        }
    }
    g
}

/// `rows x cols` grid graph (4-neighbour lattice).
pub fn grid(rows: usize, cols: usize) -> Graph {
    let mut g = Graph::new(rows * cols);
    let id = |r: usize, c: usize| (r * cols + c) as NodeId;
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                g.add_edge(id(r, c), id(r, c + 1));
            }
            if r + 1 < rows {
                g.add_edge(id(r, c), id(r + 1, c));
            }
        }
    }
    g
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
        let mut out = CsrGraph::new();
        let mut scratch = UnitDiskScratch::new();
        for n in [0usize, 1, 2, 30, 120, 300] {
            let pts = placement::uniform_points(&mut rng, Rect::paper_arena(), n);
            unit_disk_csr(Rect::paper_arena(), 25.0, &pts, None, &mut out, &mut scratch);
            let reference = CsrGraph::from(&unit_disk(Rect::paper_arena(), 25.0, &pts));
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
        let mut out = CsrGraph::new();
        let mut scratch = UnitDiskScratch::new();
        unit_disk_csr(Rect::paper_arena(), 25.0, &pts, Some(&off), &mut out, &mut scratch);
        let mut reference = unit_disk(Rect::paper_arena(), 25.0, &pts);
        for (i, &o) in off.iter().enumerate() {
            if o {
                reference.isolate(i as NodeId);
            }
        }
        assert_eq!(out, CsrGraph::from(&reference));
        assert_eq!(out.degree(13), 0);
    }

    #[test]
    fn unit_disk_csr_scratch_reuse_across_varied_sizes() {
        // Alternating sizes must not leave stale cells/items behind.
        let mut rng = rand::rngs::StdRng::seed_from_u64(37);
        let mut out = CsrGraph::new();
        let mut scratch = UnitDiskScratch::new();
        for n in [200usize, 10, 150, 1, 80] {
            let pts = placement::uniform_points(&mut rng, Rect::paper_arena(), n);
            unit_disk_csr(Rect::paper_arena(), 25.0, &pts, None, &mut out, &mut scratch);
            assert_eq!(
                out,
                CsrGraph::from(&unit_disk(Rect::paper_arena(), 25.0, &pts)),
                "n={n}"
            );
        }
    }

    #[test]
    fn unit_disk_csr_out_of_bounds_points() {
        // Clamped binning must still find true-coordinate neighbours.
        let pts = vec![Point2::new(-5.0, 50.0), Point2::new(3.0, 50.0)];
        let mut out = CsrGraph::new();
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
    fn tile_partition_covers_every_point_once_and_ascending() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(51);
        let pts = placement::uniform_points(&mut rng, Rect::paper_arena(), 250);
        let mut part = TilePartition::new();
        for (tx, ty) in [(1, 1), (2, 1), (2, 2), (4, 4), (5, 3)] {
            part.build(Rect::paper_arena(), tx, ty, &pts);
            assert_eq!(part.tiles(), tx * ty);
            let mut seen = vec![false; pts.len()];
            for t in 0..part.tiles() {
                let owned = part.owned(t);
                assert!(owned.windows(2).all(|w| w[0] < w[1]), "owned ascending");
                for &i in owned {
                    assert!(!seen[i as usize], "point {i} owned twice");
                    seen[i as usize] = true;
                }
            }
            assert!(seen.iter().all(|&b| b), "every point owned ({tx}x{ty})");
        }
    }

    #[test]
    fn tile_partition_handles_out_of_bounds_and_degenerate_points() {
        // Points outside the bounds and all-identical points must still be
        // partitioned (domain expands to the point bbox; degenerate spans
        // collapse to tile 0 on that axis).
        let pts = vec![
            Point2::new(-40.0, 50.0),
            Point2::new(150.0, 50.0),
            Point2::new(50.0, 50.0),
        ];
        let mut part = TilePartition::new();
        part.build(Rect::paper_arena(), 4, 4, &pts);
        let total: usize = (0..part.tiles()).map(|t| part.owned(t).len()).sum();
        assert_eq!(total, 3);
        let same = vec![Point2::new(7.0, 7.0); 5];
        part.build(Rect::new(6.9, 6.9, 7.1, 7.1), 3, 3, &same);
        let total: usize = (0..part.tiles()).map(|t| part.owned(t).len()).sum();
        assert_eq!(total, 5);
    }

    #[test]
    fn gather_expanded_is_the_margin_neighbourhood() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(52);
        let pts = placement::uniform_points(&mut rng, Rect::paper_arena(), 300);
        let mut part = TilePartition::new();
        part.build(Rect::paper_arena(), 3, 3, &pts);
        let margin = 2.0 * 25.0;
        let mut out = Vec::new();
        for t in 0..part.tiles() {
            part.gather_expanded(t, margin, &pts, &mut out);
            assert!(out.windows(2).all(|w| w[0] < w[1]), "gathered ascending");
            // Superset of the owned points.
            for &i in part.owned(t) {
                assert!(out.binary_search(&i).is_ok(), "tile {t} lost owned {i}");
            }
            // Everything within margin of an owned point is gathered
            // (owned points sit inside the tile, so a point within margin
            // of one is within margin of the tile rectangle).
            for &i in part.owned(t) {
                for (j, &q) in pts.iter().enumerate() {
                    if pts[i as usize].distance(q) <= margin {
                        assert!(
                            out.binary_search(&(j as u32)).is_ok(),
                            "tile {t}: {j} is within margin of owned {i} but not gathered"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn unit_disk_csr_subset_is_the_induced_subgraph() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(53);
        let pts = placement::uniform_points(&mut rng, Rect::paper_arena(), 200);
        let reference = unit_disk(Rect::paper_arena(), 25.0, &pts);
        let mut out = CsrGraph::new();
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
    fn streaming_per_tile_csr_matches_whole_graph_rows() {
        // The streaming large-n path: partition + per-tile induced CSR with
        // a one-hop margin must reproduce every owned row of the reference
        // whole-graph build — the whole adjacency is never materialised.
        let mut rng = rand::rngs::StdRng::seed_from_u64(54);
        for n in [40usize, 300, 800] {
            let pts = placement::uniform_points(&mut rng, Rect::paper_arena(), n);
            let mut whole = CsrGraph::new();
            let mut scratch = UnitDiskScratch::new();
            unit_disk_csr(Rect::paper_arena(), 25.0, &pts, None, &mut whole, &mut scratch);
            let mut part = TilePartition::new();
            part.build(Rect::paper_arena(), 2, 2, &pts);
            let margin = (25.0f64 * 25.0 + pacds_geom::EPS).sqrt();
            let (mut locals, mut tile_csr) = (Vec::new(), CsrGraph::new());
            for t in 0..part.tiles() {
                part.gather_expanded(t, margin, &pts, &mut locals);
                unit_disk_csr_subset(25.0, &pts, &locals, &mut tile_csr, &mut scratch);
                for &g in part.owned(t) {
                    let li = locals.binary_search(&g).unwrap();
                    let row: Vec<u32> = tile_csr
                        .neighbors(li as NodeId)
                        .iter()
                        .map(|&lj| locals[lj as usize])
                        .collect();
                    assert_eq!(row, whole.neighbors(g), "n={n} tile={t} node={g}");
                }
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
