//! The spatial tile grid and the per-tile step both spatial engines run.
//!
//! The batch [`ShardedCds`](crate::ShardedCds) refills one [`TileGrid`] per
//! computation, relabelling the live hosts into a tile-major, cell-major
//! internal order ([`TileGrid::fill_cell_major`]); the
//! [`ChurnEngine`](crate::ChurnEngine) fixes its grid at open over the
//! callers' ids and edits the ownership lists as hosts appear and move.
//! Either way a tile is solved by [`SpatialRun::solve_tile`].

use crate::engine::{solve_locals, WorkerSlot};
use pacds_core::CdsConfig;
use pacds_geom::{Point2, Rect, EPS};
use pacds_graph::gen::unit_disk_csr_subset;
use pacds_graph::NodeId;
use std::time::Instant;

/// A `tx × ty` grid of equal rectangular tiles over a domain, with the
/// point ids each tile owns: an ascending list per tile, or after
/// [`TileGrid::fill_cell_major`] a contiguous range per tile.
///
/// The domain is the engine's `bounds` expanded to the points' bounding
/// box ([`TileGrid::domain`]), so out-of-bounds points (which the unit-disk
/// build bins by clamping) are owned by a real tile and the margin
/// distance argument stays exact.
#[derive(Debug, Clone, Default)]
pub(crate) struct TileGrid {
    tx: usize,
    ty: usize,
    x0: f64,
    y0: f64,
    w: f64,
    h: f64,
    /// Per-tile owned ids, each list ascending; together a partition of the
    /// point ids. Lists past [`TileGrid::tiles`] are spare capacity left by
    /// an earlier, larger grid. Empty after [`TileGrid::fill_cell_major`].
    owned: Vec<Vec<u32>>,
    /// After [`TileGrid::fill_cell_major`], tile `t` owns the internal ids
    /// `starts[t]..starts[t + 1]`; empty for a grid with lists.
    starts: Vec<u32>,
}

/// A tile rectangle as `(x0, y0, x1, y1)`.
type Span = (f64, f64, f64, f64);

/// Squared distance from `p` to the rectangle `r` (0 inside it).
#[inline]
fn dist2((x0, y0, x1, y1): Span, p: Point2) -> f64 {
    let dx = (x0 - p.x).max(p.x - x1).max(0.0);
    let dy = (y0 - p.y).max(p.y - y1).max(0.0);
    dx * dx + dy * dy
}

/// The inflated `hops`-hop margin `hops * sqrt(radius² + EPS)`: a point
/// within it of a tile's rectangle is gathered into that tile's halo, and
/// an event within it of a tile dirties that tile. The inflation lets
/// round-off only widen both sets (supersets are always safe halos).
pub(crate) fn hop_margin(hops: usize, radius: f64) -> f64 {
    hops as f64 * (radius * radius + EPS).sqrt() * (1.0 + 1e-12) + 1e-9
}

impl TileGrid {
    /// `bounds` expanded to the bounding box of `points`.
    pub(crate) fn domain(bounds: Rect, points: &[Point2]) -> Rect {
        let (mut x0, mut y0, mut x1, mut y1) = (bounds.x0, bounds.y0, bounds.x1, bounds.y1);
        for p in points {
            x0 = x0.min(p.x);
            y0 = y0.min(p.y);
            x1 = x1.max(p.x);
            y1 = y1.max(p.y);
        }
        Rect::new(x0, y0, x1, y1)
    }

    /// Lays `tx × ty` tiles over `domain` and refills the ownership lists
    /// from `points` in id order, so every list is ascending. Every list
    /// keeps its capacity: allocation-free once warm.
    ///
    /// # Panics
    /// Panics if `tx` or `ty` is zero.
    pub(crate) fn fill(&mut self, domain: Rect, (tx, ty): (usize, usize), points: &[Point2]) {
        assert!(tx >= 1 && ty >= 1, "tile grid must be at least 1x1");
        self.tx = tx;
        self.ty = ty;
        self.x0 = domain.x0;
        self.y0 = domain.y0;
        self.w = domain.width();
        self.h = domain.height();
        if self.owned.len() < tx * ty {
            self.owned.resize_with(tx * ty, Vec::new);
        }
        for list in &mut self.owned {
            list.clear();
        }
        self.starts.clear();
        for (i, &p) in points.iter().enumerate() {
            let t = self.tile_of(p);
            self.owned[t].push(i as u32);
        }
    }

    /// Lays `tx × ty` tiles over `domain` and relabels the points not
    /// flagged in `off` into internal ids, tile-major and, within a tile,
    /// row-major over cells about `radius` wide, stable in external id:
    /// a counting sort by tile, then one by cell within each tile. Off
    /// hosts get no internal id. Fills `order` (`order.ext[i]` is internal
    /// id `i`'s external id, `order.points[i]` its position) and gives each
    /// tile a contiguous range of internal ids in place of a list, so a
    /// tile's window is a few runs of nearby memory. Tile membership is
    /// [`TileGrid::fill`]'s up to round-off at a tile edge. Allocation-free
    /// once warm.
    ///
    /// # Panics
    /// Panics if `tx` or `ty` is zero.
    pub(crate) fn fill_cell_major(
        &mut self,
        domain: Rect,
        (tx, ty): (usize, usize),
        radius: f64,
        points: &[Point2],
        off: Option<&[bool]>,
        order: &mut CellOrder,
    ) {
        self.fill(domain, (tx, ty), &[]);
        let tiles = tx * ty;
        // Cells per tile along each axis, about `radius` wide; halved
        // until the cells number at most twice the points, so a radius
        // tiny next to the domain cannot blow up the count table.
        let per_axis =
            |len: f64, k: usize| ((len / k as f64 / radius).ceil() as usize).clamp(1, 1 << 16);
        let (x0, y0, w, h) = (self.x0, self.y0, self.w, self.h);
        let (mut kx, mut ky) = (per_axis(w, tx), per_axis(h, ty));
        while kx * ky > 1 && kx * ky * tiles > (2 * points.len()).max(tiles) {
            kx = kx.div_ceil(2);
            ky = ky.div_ceil(2);
        }
        // A point's (tile, cell) is its global column's part plus its
        // global row's, both from small tables: column `g` lies in tile
        // column `g / kx` (up to round-off at a tile edge, which the
        // gather margin's inflation absorbs) at cell `g % kx` within it.
        let (nx, ny) = (tx * kx, ty * ky);
        order.axes.clear();
        order
            .axes
            .extend((0..nx).map(|g| ((g / kx) as u32, (g % kx) as u32)));
        order
            .axes
            .extend((0..ny).map(|g| (((g / ky) * tx) as u32, ((g % ky) * kx) as u32)));
        let (cols, rows) = order.axes.split_at(nx);
        let (sx, sy) = (nx as f64 / w, ny as f64 / h);
        let bucket = |p: Point2| {
            // Casting a negative f64 to usize saturates to 0.
            let (tc, cc) = cols[(((p.x - x0) * sx) as usize).min(nx - 1)];
            let (tr, cr) = rows[(((p.y - y0) * sy) as usize).min(ny - 1)];
            ((tr + tc) as usize, (cr + cc) as usize)
        };
        let live = |&(i, _): &(usize, &Point2)| off.is_none_or(|o| !o[i]);

        // By tile: `starts` becomes the tiles' ranges, and `counts` the
        // cursors of one stream of ids and one of positions per tile.
        self.starts.resize(tiles + 1, 0);
        for (_, &p) in points.iter().enumerate().filter(live) {
            self.starts[bucket(p).0 + 1] += 1;
        }
        for t in 1..=tiles {
            self.starts[t] += self.starts[t - 1];
        }
        let counts = &mut order.counts;
        counts.clear();
        counts.extend_from_slice(&self.starts[..tiles]);
        let n_live = self.starts[tiles] as usize;
        order.ext.clear();
        order.ext.resize(n_live, 0);
        order.points.clear();
        order.points.resize(n_live, Point2::new(0.0, 0.0));
        for (i, &p) in points.iter().enumerate().filter(live) {
            let cursor = &mut counts[bucket(p).0];
            order.ext[*cursor as usize] = i as u32;
            order.points[*cursor as usize] = p;
            *cursor += 1;
        }

        // By cell within each tile, from a copy of the tile's run: the
        // whole sort stays inside one tile's worth of memory.
        for t in 0..tiles {
            let range = self.starts[t] as usize..self.starts[t + 1] as usize;
            let (run, run_points) = (&mut order.run, &mut order.run_points);
            run.clear();
            run.extend_from_slice(&order.ext[range.clone()]);
            run_points.clear();
            run_points.extend_from_slice(&order.points[range.clone()]);
            counts.clear();
            counts.resize(kx * ky + 1, 0);
            for &p in run_points.iter() {
                counts[bucket(p).1 + 1] += 1;
            }
            for c in 1..counts.len() {
                counts[c] += counts[c - 1];
            }
            for (&i, &p) in run.iter().zip(run_points.iter()) {
                let cursor = &mut counts[bucket(p).1];
                let slot = range.start + *cursor as usize;
                order.ext[slot] = i;
                order.points[slot] = p;
                *cursor += 1;
            }
        }
    }

    /// Number of tiles (`tx * ty`).
    #[inline]
    pub(crate) fn tiles(&self) -> usize {
        self.tx * self.ty
    }

    /// The point ids tile `t` owns, ascending, of a grid with lists.
    #[inline]
    pub(crate) fn owned(&self, t: usize) -> &[u32] {
        debug_assert!(self.starts.is_empty(), "a cell-major grid has no lists");
        &self.owned[t]
    }

    /// The point ids tile `t` owns, ascending: its range after
    /// [`TileGrid::fill_cell_major`], its list otherwise.
    #[inline]
    pub(crate) fn members(&self, t: usize) -> impl Iterator<Item = u32> + '_ {
        let range = match self.starts.as_slice() {
            [] => 0..0,
            s => s[t]..s[t + 1],
        };
        range.chain(self.owned[t].iter().copied())
    }

    /// How many points tile `t` owns.
    #[inline]
    pub(crate) fn owned_count(&self, t: usize) -> usize {
        match self.starts.as_slice() {
            [] => self.owned[t].len(),
            s => (s[t + 1] - s[t]) as usize,
        }
    }

    /// Whether tile `t` owns point `id` at `p`: `id` lies in the tile's
    /// range after [`TileGrid::fill_cell_major`]; on a grid with lists,
    /// `p` lies in the tile, the invariant [`TileGrid::fill`],
    /// [`TileGrid::add`] and [`TileGrid::relocate`] maintain.
    #[inline]
    pub(crate) fn owns(&self, t: usize, id: u32, p: Point2) -> bool {
        match self.starts.as_slice() {
            [] => self.tile_of(p) == t,
            s => (s[t]..s[t + 1]).contains(&id),
        }
    }

    /// Tile index along one axis, saturating at the edges. The domain
    /// contains `bounds`, so `span` is positive.
    #[inline]
    fn axis_tile(c: f64, lo: f64, span: f64, k: usize) -> usize {
        // Casting a negative f64 to usize saturates to 0.
        (((c - lo) / span * k as f64) as usize).min(k - 1)
    }

    /// The tile that owns a point at `p`.
    #[inline]
    pub(crate) fn tile_of(&self, p: Point2) -> usize {
        Self::axis_tile(p.y, self.y0, self.h, self.ty) * self.tx
            + Self::axis_tile(p.x, self.x0, self.w, self.tx)
    }

    /// Whether `p` lies in the domain.
    pub(crate) fn contains(&self, p: Point2) -> bool {
        p.x >= self.x0 && p.x <= self.x0 + self.w && p.y >= self.y0 && p.y <= self.y0 + self.h
    }

    /// Tile `t`'s rectangle.
    fn tile_span(&self, t: usize) -> Span {
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

    /// Calls `f(t)` for every tile `t` of the index window covering `span`
    /// expanded by `m`, widened by `widen` tiles per side. Callers keep the
    /// set tight with a distance test.
    fn for_window<F>(&self, (x0, y0, x1, y1): Span, m: f64, widen: usize, mut f: F)
    where
        F: FnMut(usize),
    {
        let cx_lo = Self::axis_tile(x0 - m, self.x0, self.w, self.tx).saturating_sub(widen);
        let cx_hi = (Self::axis_tile(x1 + m, self.x0, self.w, self.tx) + widen).min(self.tx - 1);
        let cy_lo = Self::axis_tile(y0 - m, self.y0, self.h, self.ty).saturating_sub(widen);
        let cy_hi = (Self::axis_tile(y1 + m, self.y0, self.h, self.ty) + widen).min(self.ty - 1);
        for cy in cy_lo..=cy_hi {
            for cx in cx_lo..=cx_hi {
                f(cy * self.tx + cx);
            }
        }
    }

    /// Calls `f(t)` for every tile within distance `m` of `p`. The window
    /// is widened by one tile per side so an exact boundary hit can never
    /// fall outside it: a missed tile would keep a stale solve.
    pub(crate) fn for_tiles_within<F: FnMut(usize)>(&self, p: Point2, m: f64, mut f: F) {
        self.for_window((p.x, p.y, p.x, p.y), m, 1, |t| {
            if dist2(self.tile_span(t), p) <= m * m {
                f(t);
            }
        });
    }

    /// Collects into `out` every point within distance `m` of tile `t`'s
    /// rectangle — a superset of the points reachable from tile `t` in `h`
    /// hops when `m` is the [`hop_margin`] of `h`. The window is not
    /// widened: round-off can only drop a point within an ulp of distance
    /// `m`, which the margin's inflation already keeps beyond `h` hops.
    /// Each widened side would scan a whole extra row of tiles.
    ///
    /// The output is in window order (tile by tile), not sorted: the
    /// unit-disk build relabels the window into its cell order anyway.
    pub(crate) fn gather(&self, t: usize, m: f64, points: &[Point2], out: &mut Vec<u32>) {
        out.clear();
        let span = self.tile_span(t);
        self.for_window(span, m, 0, |c| {
            out.extend(
                self.members(c)
                    .filter(|&i| dist2(span, points[i as usize]) <= m * m),
            );
        });
    }

    /// Gives new point `id` at `p` to its tile. `id` must exceed every id
    /// already owned, so appending keeps the list ascending.
    pub(crate) fn add(&mut self, id: u32, p: Point2) {
        debug_assert!(self.starts.is_empty(), "a cell-major grid has no lists");
        let t = self.tile_of(p);
        debug_assert!(self.owned[t].last().is_none_or(|&l| l < id));
        self.owned[t].push(id);
    }

    /// Moves the ownership of point `id` from the tile of `from` to the
    /// tile of `to`, keeping both lists ascending.
    pub(crate) fn relocate(&mut self, id: u32, from: Point2, to: Point2) {
        debug_assert!(self.starts.is_empty(), "a cell-major grid has no lists");
        let (old_t, new_t) = (self.tile_of(from), self.tile_of(to));
        if old_t != new_t {
            let i = self.owned[old_t]
                .binary_search(&id)
                .expect("ownership lists partition the id space");
            self.owned[old_t].remove(i);
            let i = self.owned[new_t]
                .binary_search(&id)
                .expect_err("a point is owned by exactly one tile");
            self.owned[new_t].insert(i, id);
        }
    }
}

/// The internal order [`TileGrid::fill_cell_major`] builds: retained
/// buffers, so a warm refill allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct CellOrder {
    /// Internal id → external (caller's) id; live hosts only.
    pub(crate) ext: Vec<u32>,
    /// Positions in internal order.
    pub(crate) points: Vec<Point2>,
    /// The (tile, cell) parts of the global cell columns, then of the
    /// rows.
    axes: Vec<(u32, u32)>,
    /// Counting-sort cursors: per tile, then per cell of one tile.
    counts: Vec<u32>,
    /// One tile's run of external ids and of positions, sorted by cell
    /// back into `ext` and `points`.
    run: Vec<u32>,
    run_points: Vec<Point2>,
}

/// What every tile of one spatial solve shares: the grid, the instance,
/// which hosts are off, and the gather margin.
pub(crate) struct SpatialRun<'a, F> {
    pub(crate) grid: &'a TileGrid,
    /// Positions, indexed by the grid's ids.
    pub(crate) points: &'a [Point2],
    /// The grid's ids → the callers' ids ([`CellOrder::ext`]); `None`
    /// when the grid's ids are the callers' already.
    pub(crate) ext: Option<&'a [u32]>,
    /// `off(i)`: host `i` is switched off (no edges, all-false verdicts).
    pub(crate) off: F,
    pub(crate) radius: f64,
    /// Gather margin, a [`hop_margin`].
    pub(crate) margin: f64,
    pub(crate) energy: Option<&'a [u64]>,
    pub(crate) cfg: &'a CdsConfig,
}

impl<F: Fn(usize) -> bool> SpatialRun<'_, F> {
    /// Solves tile `t` on `slot`: gathers the points within the margin of
    /// the tile, drops the off hosts, builds the induced unit-disk
    /// subgraph (which relabels the window into cell order), lists the
    /// live locals the tile owns and runs [`solve_locals`]. Every owned
    /// host's verdict is pushed to `slot.results` under its external id:
    /// off hosts' (all false) first, then the live ones.
    pub(crate) fn solve_tile(&self, slot: &mut WorkerSlot, t: usize) {
        let (grid, points) = (self.grid, self.points);
        let hb = Instant::now();
        {
            let _t = pacds_obs::phase_timer(pacds_obs::Phase::ShardHaloBuild);
            grid.gather(t, self.margin, points, &mut slot.locals);
            // Off hosts contribute no edges anywhere, so the induced live
            // subgraph equals the full subgraph with them isolated. The
            // window holds every host the tile owns, off ones included.
            let results = &mut slot.results;
            slot.locals.retain(|&g| {
                let off = (self.off)(g as usize);
                if off && grid.owns(t, g, points[g as usize]) {
                    results.push((g, 0));
                }
                !off
            });
            unit_disk_csr_subset(
                self.radius,
                points,
                &mut slot.locals,
                &mut slot.csr,
                &mut slot.uds,
            );
        }
        slot.halo_build_ns += hb.elapsed().as_nanos() as u64;

        slot.owned.clear();
        slot.owned
            .extend((0..slot.locals.len() as NodeId).filter(|&li| {
                let g = slot.locals[li as usize];
                grid.owns(t, g, points[g as usize])
            }));
        debug_assert_eq!(
            slot.owned.len(),
            grid.members(t).filter(|&g| !(self.off)(g as usize)).count(),
            "tile {t} halo lost an owned node"
        );
        solve_locals(slot, self.ext, self.energy, self.cfg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pacds_geom::placement;
    use pacds_graph::gen::{unit_disk_csr, UnitDiskScratch};
    use pacds_graph::{Graph, NodeId};
    use rand::{Rng, SeedableRng};

    fn filled(bounds: Rect, grid: (usize, usize), pts: &[Point2]) -> TileGrid {
        let mut tiles = TileGrid::default();
        tiles.fill(TileGrid::domain(bounds, pts), grid, pts);
        tiles
    }

    /// Every id in `0..n` is owned by exactly one tile, each list ascending.
    fn assert_partition(tiles: &TileGrid, n: usize) {
        let mut seen = vec![false; n];
        for t in 0..tiles.tiles() {
            let owned = tiles.owned(t);
            assert!(owned.windows(2).all(|w| w[0] < w[1]), "owned ascending");
            for &i in owned {
                assert!(!seen[i as usize], "point {i} owned twice");
                seen[i as usize] = true;
            }
        }
        assert!(seen.iter().all(|&b| b), "every point owned");
    }

    #[test]
    fn fill_covers_every_point_once_and_ascending() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(51);
        let pts = placement::uniform_points(&mut rng, Rect::paper_arena(), 250);
        let mut tiles = TileGrid::default();
        // Coarse after fine: the spare lists of the larger grid must not
        // keep stale owners.
        for (tx, ty) in [(1, 1), (2, 1), (4, 4), (2, 2), (5, 3)] {
            tiles.fill(Rect::paper_arena(), (tx, ty), &pts);
            assert_eq!(tiles.tiles(), tx * ty);
            assert_partition(&tiles, pts.len());
            for t in 0..tiles.tiles() {
                for &i in tiles.owned(t) {
                    assert_eq!(tiles.tile_of(pts[i as usize]), t);
                }
            }
        }
    }

    #[test]
    fn fill_handles_out_of_bounds_and_coincident_points() {
        // Points outside the bounds widen the domain; identical points all
        // land in one tile.
        let pts = vec![
            Point2::new(-40.0, 50.0),
            Point2::new(150.0, 50.0),
            Point2::new(50.0, 50.0),
        ];
        let tiles = filled(Rect::paper_arena(), (4, 4), &pts);
        assert_partition(&tiles, 3);
        assert!(pts.iter().all(|&p| tiles.contains(p)));
        let same = vec![Point2::new(7.0, 7.0); 5];
        let tiles = filled(Rect::new(6.9, 6.9, 7.1, 7.1), (3, 3), &same);
        assert_partition(&tiles, 5);
        assert_eq!(tiles.owned(4), [0, 1, 2, 3, 4]);
    }

    #[test]
    fn cell_major_fill_gives_each_tile_a_contiguous_range_of_live_points() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(56);
        let bounds = Rect::paper_arena();
        let pts = placement::uniform_points(&mut rng, bounds, 400);
        let off: Vec<bool> = (0..400).map(|_| rng.random_bool(0.2)).collect();
        let (mut tiles, mut order, mut out) =
            (TileGrid::default(), CellOrder::default(), Vec::new());
        for (tx, ty) in [(4, 4), (1, 1), (3, 2)] {
            for mask in [None, Some(off.as_slice())] {
                let domain = TileGrid::domain(bounds, &pts);
                tiles.fill_cell_major(domain, (tx, ty), 25.0, &pts, mask, &mut order);
                let mut ext = order.ext.clone();
                ext.sort_unstable();
                let live: Vec<u32> = (0..400u32)
                    .filter(|&i| mask.is_none_or(|o| !o[i as usize]))
                    .collect();
                assert_eq!(ext, live, "every live point gets one internal id");
                for (i, &g) in order.ext.iter().enumerate() {
                    assert_eq!(order.points[i], pts[g as usize]);
                }
                let mut next = 0u32;
                for t in 0..tiles.tiles() {
                    let count = tiles.owned_count(t) as u32;
                    assert!(tiles.members(t).eq(next..next + count));
                    next += count;
                    for i in tiles.members(t) {
                        assert_eq!(tiles.tile_of(order.points[i as usize]), t);
                    }
                    // Ownership is the range, whatever the position says.
                    for i in 0..live.len() as u32 {
                        let p = order.points[i as usize];
                        assert_eq!(tiles.owns(t, i, p), (next - count..next).contains(&i));
                    }
                    // The window is exactly the live points within the
                    // margin of the tile, each once.
                    tiles.gather(t, 50.0, &order.points, &mut out);
                    out.sort_unstable();
                    let span = tiles.tile_span(t);
                    let near: Vec<u32> = (0..live.len() as u32)
                        .filter(|&i| dist2(span, order.points[i as usize]) <= 50.0 * 50.0)
                        .collect();
                    assert_eq!(out, near, "tile {t} window");
                }
                assert_eq!(next as usize, live.len());
            }
        }
    }

    #[test]
    fn gather_is_the_margin_neighbourhood() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(52);
        let pts = placement::uniform_points(&mut rng, Rect::paper_arena(), 300);
        let tiles = filled(Rect::paper_arena(), (3, 3), &pts);
        let margin = 2.0 * 25.0;
        let mut out = Vec::new();
        for t in 0..tiles.tiles() {
            tiles.gather(t, margin, &pts, &mut out);
            // In window order, each point once; sorted here for the
            // membership checks.
            out.sort_unstable();
            assert!(out.windows(2).all(|w| w[0] < w[1]), "gathered once each");
            // Superset of the owned points.
            for &i in tiles.owned(t) {
                assert!(out.binary_search(&i).is_ok(), "tile {t} lost owned {i}");
            }
            // Everything within margin of an owned point is gathered
            // (owned points sit inside the tile, so a point within margin
            // of one is within margin of the tile rectangle).
            for &i in tiles.owned(t) {
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
    fn per_tile_csr_matches_whole_graph_rows() {
        // The streaming large-n path: tiles + per-tile induced CSR with a
        // one-hop margin must reproduce every owned row of the whole-graph
        // build — the whole adjacency is never materialised.
        let mut rng = rand::rngs::StdRng::seed_from_u64(54);
        for n in [40usize, 300, 800] {
            let pts = placement::uniform_points(&mut rng, Rect::paper_arena(), n);
            let mut whole = Graph::default();
            let mut scratch = UnitDiskScratch::new();
            unit_disk_csr(
                Rect::paper_arena(),
                25.0,
                &pts,
                None,
                &mut whole,
                &mut scratch,
            );
            let tiles = filled(Rect::paper_arena(), (2, 2), &pts);
            let (mut locals, mut tile_csr) = (Vec::new(), Graph::default());
            for t in 0..tiles.tiles() {
                tiles.gather(t, hop_margin(1, 25.0), &pts, &mut locals);
                unit_disk_csr_subset(25.0, &pts, &mut locals, &mut tile_csr, &mut scratch);
                // The relabelled window: the tile's owned locals are
                // exactly those `owns` picks, and each owned row, mapped
                // back through `locals`, is the whole graph's row.
                let owned: Vec<u32> = (0..locals.len())
                    .filter(|&li| tiles.owns(t, locals[li], pts[locals[li] as usize]))
                    .map(|li| locals[li])
                    .collect();
                let mut expected_owned = tiles.owned(t).to_vec();
                let mut got_owned = owned.clone();
                got_owned.sort_unstable();
                expected_owned.sort_unstable();
                assert_eq!(got_owned, expected_owned, "n={n} tile={t} owned");
                for &g in &owned {
                    let li = locals.iter().position(|&l| l == g).unwrap();
                    let row = tile_csr.neighbors(li as NodeId);
                    assert!(row.windows(2).all(|w| w[0] < w[1]), "local rows ascend");
                    let mut row: Vec<u32> = row.iter().map(|&lj| locals[lj as usize]).collect();
                    row.sort_unstable();
                    assert_eq!(row, whole.neighbors(g), "n={n} tile={t} node={g}");
                }
            }
        }
    }

    #[test]
    fn adds_and_moves_keep_the_lists_a_partition() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(55);
        let bounds = Rect::square(400.0);
        let mut pts = placement::uniform_points(&mut rng, bounds, 300);
        let mut tiles = filled(bounds, (5, 4), &pts);
        let pos = |rng: &mut rand::rngs::StdRng| {
            Point2::new(rng.random_range(0.0..=400.0), rng.random_range(0.0..=400.0))
        };
        for _ in 0..500 {
            if rng.random_bool(0.3) {
                let p = pos(&mut rng);
                tiles.add(pts.len() as u32, p);
                pts.push(p);
            } else {
                let id = rng.random_range(0..pts.len());
                let to = pos(&mut rng);
                tiles.relocate(id as u32, pts[id], to);
                pts[id] = to;
            }
        }
        assert_partition(&tiles, pts.len());
        for (i, &p) in pts.iter().enumerate() {
            assert!(tiles.owned(tiles.tile_of(p)).contains(&(i as u32)));
            for t in 0..tiles.tiles() {
                let listed = tiles.owned(t).contains(&(i as u32));
                assert_eq!(tiles.owns(t, i as u32, p), listed, "point {i} tile {t}");
            }
        }
    }
}
