//! The churn engine: persistent sharded state under a stream of mutation
//! events, re-solving only the tiles each event can actually reach.
//!
//! ## Dirty-set derivation
//!
//! A tile's solve is a pure function of the points within the 2-hop
//! geometric margin of its rectangle (`REQUIRED_HALO * sqrt(r² + EPS)`,
//! the same licence the batch engine's halo rests on). An event that
//! touches position `p` — adding a node there, moving a node from or to
//! there, killing the node that sits there — can therefore only change
//! the solve of tiles whose rectangle lies within that margin of `p`;
//! every other tile's stored verdicts remain exact and are *not*
//! recomputed. Battery drains reach only one hop (priorities are compared
//! strictly between a node and its direct neighbours), so they dirty the
//! 1-hop margin — and when the active policy ignores energy entirely they
//! dirty nothing at all.
//!
//! ## Tile sizing
//!
//! With `spec.shards == 0` the grid follows the geometry, not `n`: tiles
//! of side `s = 2·m`, `m` the inflated 2-hop margin (50 at r = 25). An
//! event dirties the tiles within `m` of it, about `(s + 2m)² / s²` of
//! them, and each costs about `(s + 2m)²` (its owned square plus halo),
//! so the work per event grows as `(s + 2m)⁴ / s²` — smallest at
//! `s = 2m`. The side is floored so a tile owns at least 64 hosts on
//! average, which keeps sparse arenas from becoming a sea of empty tiles.
//!
//! ## Seeding at open
//!
//! A fine grid makes a full solve dearer: the halo replication factor
//! `(s + 2m)² / s²` is 4 at `s = 2m`. So [`ChurnEngine::open`] does not
//! solve its own tiles; it runs one batch
//! [`ShardedCds::compute_unit_disk`] at the batch engine's coarse
//! automatic count over the engine's domain and fills the merged masks and
//! every tile's stored verdicts from it by ownership. Verdicts do not
//! depend on the tiling (the sharding proofs; the conformance suites pin
//! it), so the seed is exact.
//!
//! After [`ChurnEngine::refresh`], the merged masks are bit-identical to
//! a from-scratch [`ShardedCds::compute_unit_disk_masked`] (and hence to
//! the whole-graph pipeline) on the current points / off-mask / energy —
//! the testkit's differential churn harness pins this after every event.

use crate::engine::{
    grid_for, ready_executors, run_tiles, schedule_order, DisjointPtr, ShardSpec, ShardedCds,
    WorkerSlot,
};
use crate::error::{check_shardable, ChurnError, ShardError};
use crate::pool::WorkerPool;
use crate::tiles::{hop_margin, SpatialRun, TileGrid};
use crate::REQUIRED_HALO;
use pacds_core::CdsConfig;
use pacds_geom::{Point2, Rect};
use pacds_graph::{NodeId, VertexMask};
use std::sync::atomic::AtomicUsize;
use std::time::Instant;

/// One mutation against a [`ChurnEngine`]'s persistent graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChurnEvent {
    /// A new host appears at `pos` with `energy` residual units; it takes
    /// the next free id (`engine.n()` before the event).
    AddNode {
        /// Where the host appears (must lie in the engine's domain).
        pos: Point2,
        /// Initial residual energy level.
        energy: u64,
    },
    /// Host `node` moves to `to`.
    MoveNode {
        /// The moving host.
        node: NodeId,
        /// Its new position (must lie in the engine's domain).
        to: Point2,
    },
    /// Host `node` switches off permanently: it keeps its id slot but is
    /// isolated (no edges in either direction) and carries all-false
    /// verdicts — the same dead-host model as
    /// [`pacds_graph::gen::unit_disk_csr`]'s off-mask.
    KillNode {
        /// The dying host.
        node: NodeId,
    },
    /// Host `node`'s residual energy becomes `remaining` (drain schedules
    /// set absolute levels, so replaying a trace never depends on history).
    DrainBattery {
        /// The draining host.
        node: NodeId,
        /// The new residual level.
        remaining: u64,
    },
}

/// Totals of one [`ChurnEngine::refresh`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChurnStats {
    /// Events applied since the previous refresh.
    pub events: u64,
    /// Tiles that were dirty when the refresh started.
    pub dirty_tiles: usize,
    /// Tiles actually re-solved (equals `dirty_tiles` except under the
    /// diagnostics-only partial refresh).
    pub resolved_tiles: usize,
    /// Total tiles in the fixed grid — the denominator of the headline
    /// "re-solved « total" claim.
    pub total_tiles: usize,
    /// Nodes whose gateway verdict flipped in this refresh.
    pub gateway_flips: u64,
    /// Time gathering halos and building per-tile subgraphs.
    pub halo_build_ns: u64,
    /// Time in per-tile marking + rule passes.
    pub solve_ns: u64,
    /// Time scattering re-solved tiles into the merged masks.
    pub scatter_ns: u64,
    /// Tiles taken cross-stripe by the worker pool.
    pub stolen_tiles: u64,
}

/// Lifetime totals of a [`ChurnEngine`] (across all refreshes).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChurnTotals {
    /// Events accepted since [`ChurnEngine::open`].
    pub events: u64,
    /// Refreshes run (the seed at open counts as one).
    pub refreshes: u64,
    /// Tiles re-solved, summed over refreshes (the seed at open re-solves
    /// none of the engine's own tiles).
    pub resolved_tiles: u64,
    /// Gateway verdict flips, summed over refreshes (the seed at open
    /// counts every initial gateway as a flip from the empty set).
    pub gateway_flips: u64,
}

/// Hosts a derived tile owns on average, at least.
const MIN_HOSTS_PER_TILE: usize = 64;

/// The derived grid for a `w × h` domain holding `n` hosts: tiles of side
/// `2·margin` (see the module docs), floored so a tile owns at least
/// [`MIN_HOSTS_PER_TILE`] hosts on average. Each axis takes the count whose
/// side is nearest the target, but never one that cuts a side below the
/// floor.
fn derived_grid(margin: f64, w: f64, h: f64, n: usize) -> (usize, usize) {
    let floor = (MIN_HOSTS_PER_TILE as f64 * w * h / n.max(1) as f64).sqrt();
    let side = (2.0 * margin).max(floor);
    let axis = |span: f64| ((span / side).round().min((span / floor).floor()) as usize).max(1);
    (axis(w), axis(h))
}

/// The inflated 2-hop margin: topology events dirty the tiles within it.
fn topo_margin(radius: f64) -> f64 {
    hop_margin(REQUIRED_HALO, radius)
}

/// A persistent sharded unit-disk CDS instance that absorbs a stream of
/// [`ChurnEvent`]s and re-solves only the dirty tiles.
///
/// Usage: [`ChurnEngine::open`] seeds the initial verdicts; then any
/// number of [`ChurnEngine::apply`] calls accumulate events and their
/// dirty tiles, and [`ChurnEngine::refresh`] re-solves the dirty set on
/// the worker pool and folds the verdicts into the merged masks.
/// Rejected events ([`ChurnError`]) leave all state untouched.
#[derive(Debug)]
pub struct ChurnEngine {
    spec: ShardSpec,
    cfg: CdsConfig,
    radius: f64,
    /// 2-hop margin (inflated): topology events dirty tiles within it.
    margin_topo: f64,
    /// 1-hop margin (inflated): energy events dirty tiles within it.
    margin_energy: f64,
    /// The fixed tile grid; a node (dead ones included) is owned by the
    /// tile of its current position.
    grid: TileGrid,
    points: Vec<Point2>,
    energy: Vec<u64>,
    alive: Vec<bool>,
    dirty: Vec<bool>,
    dirty_list: Vec<u32>,
    /// Per-tile verdicts of the last solve of that tile, sorted by id:
    /// `(global id, marked | after1 << 1 | gateway << 2)`.
    tile_results: Vec<Vec<(u32, u8)>>,
    slots: Vec<WorkerSlot>,
    pool: WorkerPool,
    /// Tiles the current refresh re-solves, in dirty-list order.
    solve: Vec<u32>,
    /// `solve` in LPT order, as tile ids.
    order: Vec<u32>,
    weights: Vec<u64>,
    cursors: Vec<AtomicUsize>,
    marked: VertexMask,
    after1: VertexMask,
    gateways: VertexMask,
    events_pending: u64,
    stats: ChurnStats,
    totals: ChurnTotals,
    /// Trace id the next refresh's spans are attributed to.
    trace: pacds_obs::TraceId,
}

impl ChurnEngine {
    /// Opens a persistent instance over `points` / `energy` inside
    /// `bounds` and seeds its verdicts. The domain is `bounds` expanded to
    /// the initial points' bounding box; later events must stay inside it.
    /// The tile grid over it is fixed here: `spec.shards` tiles when
    /// non-zero, otherwise the derived grid — tiles of side twice the
    /// 2-hop margin, floored to 64 hosts per tile on average (see the
    /// module docs). The initial verdicts come from one
    /// batch [`ShardedCds`] solve at its automatic count, copied into
    /// every tile by ownership; no tile of the engine is solved here.
    ///
    /// Rejects unshardable configurations and too-narrow halos with the
    /// same typed errors as the batch engine. A `spec.halo` above
    /// [`REQUIRED_HALO`] is accepted and changes nothing: the seeding
    /// solve and the engine's own tiles always gather the exact 2-hop
    /// margin, so masks, tile counts and work match those at the minimum
    /// halo.
    ///
    /// # Panics
    /// Panics if `radius <= 0` or `energy.len() != points.len()` (energy
    /// is engine state here — [`ChurnEvent::DrainBattery`] mutates it —
    /// so it is required even for policies that ignore it).
    pub fn open(
        spec: ShardSpec,
        bounds: Rect,
        radius: f64,
        points: &[Point2],
        energy: &[u64],
        cfg: &CdsConfig,
    ) -> Result<Self, ChurnError> {
        check_shardable(cfg)?;
        if spec.halo < REQUIRED_HALO {
            return Err(ChurnError::Shard(ShardError::HaloTooSmall {
                halo: spec.halo,
                required: REQUIRED_HALO,
            }));
        }
        assert!(radius > 0.0, "transmission radius must be positive");
        assert_eq!(
            energy.len(),
            points.len(),
            "energy length must equal point count"
        );

        let domain = TileGrid::domain(bounds, points);
        let margin_topo = topo_margin(radius);
        let (w, h) = (domain.width(), domain.height());
        let shape = if spec.shards == 0 {
            derived_grid(margin_topo, w, h, points.len())
        } else {
            grid_for(spec.shards, w, h)
        };
        let mut grid = TileGrid::default();
        grid.fill(domain, shape, points);
        let tiles = grid.tiles();

        let mut engine = Self {
            spec,
            cfg: *cfg,
            radius,
            margin_topo,
            margin_energy: hop_margin(1, radius),
            grid,
            points: points.to_vec(),
            energy: energy.to_vec(),
            alive: vec![true; points.len()],
            dirty: vec![false; tiles],
            dirty_list: Vec::new(),
            tile_results: vec![Vec::new(); tiles],
            slots: Vec::new(),
            pool: WorkerPool::default(),
            solve: Vec::new(),
            order: Vec::new(),
            weights: Vec::new(),
            cursors: Vec::new(),
            marked: VertexMask::new(),
            after1: VertexMask::new(),
            gateways: VertexMask::new(),
            events_pending: 0,
            stats: ChurnStats::default(),
            totals: ChurnTotals::default(),
            trace: pacds_obs::TraceId::NONE,
        };
        engine.seed(domain)?;
        Ok(engine)
    }

    /// Fills the merged masks and every tile's stored verdicts from one
    /// batch solve over `domain` at the batch engine's automatic count and
    /// the exact halo.
    fn seed(&mut self, domain: Rect) -> Result<(), ShardError> {
        let mut batch = ShardedCds::new(ShardSpec {
            shards: 0,
            halo: REQUIRED_HALO,
            ..self.spec
        })?;
        batch.compute_unit_disk(
            domain,
            self.radius,
            &self.points,
            Some(&self.energy),
            &self.cfg,
        )?;
        let sc = Instant::now();
        self.marked = batch.marked().clone();
        self.after1 = batch.after_rule1().clone();
        self.gateways = batch.gateways().clone();
        let (marked, after1, gateways) = (&self.marked, &self.after1, &self.gateways);
        for (t, res) in self.tile_results.iter_mut().enumerate() {
            res.extend(self.grid.owned(t).iter().map(|&g| {
                let i = g as usize;
                (
                    g,
                    u8::from(marked[i]) | (u8::from(after1[i]) << 1) | (u8::from(gateways[i]) << 2),
                )
            }));
        }
        let bs = batch.stats();
        let flips = self.gateway_count() as u64;
        self.stats = ChurnStats {
            total_tiles: self.grid.tiles(),
            gateway_flips: flips,
            halo_build_ns: bs.halo_build_ns,
            solve_ns: bs.solve_ns,
            scatter_ns: bs.merge_ns + sc.elapsed().as_nanos() as u64,
            stolen_tiles: bs.stolen_tiles,
            ..ChurnStats::default()
        };
        self.totals.refreshes = 1;
        self.totals.gateway_flips = flips;
        pacds_obs::add(pacds_obs::Counter::ChurnRefreshes, 1);
        pacds_obs::add(pacds_obs::Counter::ChurnGatewayFlips, flips);
        Ok(())
    }

    /// Validates and applies one event, accumulating (but not solving) the
    /// tiles it dirties. On error the engine state is untouched.
    pub fn apply(&mut self, ev: &ChurnEvent) -> Result<(), ChurnError> {
        match *ev {
            ChurnEvent::AddNode { pos, energy } => {
                if !self.grid.contains(pos) {
                    return Err(ChurnError::OutOfBounds { x: pos.x, y: pos.y });
                }
                let id = self.points.len() as u32;
                self.grid.add(id, pos);
                self.points.push(pos);
                self.energy.push(energy);
                self.alive.push(true);
                self.mark_dirty_around(pos, self.margin_topo);
            }
            ChurnEvent::MoveNode { node, to } => {
                self.check_live(node)?;
                if !self.grid.contains(to) {
                    return Err(ChurnError::OutOfBounds { x: to.x, y: to.y });
                }
                let from = self.points[node as usize];
                self.grid.relocate(node, from, to);
                self.points[node as usize] = to;
                self.mark_dirty_around(from, self.margin_topo);
                self.mark_dirty_around(to, self.margin_topo);
            }
            ChurnEvent::KillNode { node } => {
                self.check_live(node)?;
                self.alive[node as usize] = false;
                self.mark_dirty_around(self.points[node as usize], self.margin_topo);
            }
            ChurnEvent::DrainBattery { node, remaining } => {
                self.check_live(node)?;
                if self.energy[node as usize] != remaining {
                    self.energy[node as usize] = remaining;
                    // Priorities are only ever compared between direct
                    // neighbours, so an energy change reaches one hop —
                    // and nothing at all when the policy ignores energy.
                    if self.cfg.policy.needs_energy() {
                        self.mark_dirty_around(self.points[node as usize], self.margin_energy);
                    }
                }
            }
        }
        self.events_pending += 1;
        self.totals.events += 1;
        Ok(())
    }

    fn check_live(&self, node: NodeId) -> Result<(), ChurnError> {
        if node as usize >= self.points.len() {
            return Err(ChurnError::UnknownNode {
                node,
                n: self.points.len(),
            });
        }
        if !self.alive[node as usize] {
            return Err(ChurnError::DeadNode { node });
        }
        Ok(())
    }

    fn mark_dirty_around(&mut self, p: Point2, m: f64) {
        let (dirty, dirty_list) = (&mut self.dirty, &mut self.dirty_list);
        self.grid.for_tiles_within(p, m, |t| {
            if !dirty[t] {
                dirty[t] = true;
                dirty_list.push(t as u32);
            }
        });
    }

    /// Attributes the next refresh's spans to `trace` (the serving layer
    /// threads each Mutate request's id through here). Sticky until
    /// changed; [`pacds_obs::TraceId::NONE`] turns attribution back off.
    #[inline]
    pub fn set_trace(&mut self, trace: pacds_obs::TraceId) {
        self.trace = trace;
    }

    /// Re-solves every dirty tile on the worker pool, scatters the new
    /// verdicts into the merged masks, and clears the dirty set.
    pub fn refresh(&mut self) -> ChurnStats {
        self.refresh_where(|_| true)
    }

    /// Diagnostics-only partial refresh: re-solves only the dirty tiles
    /// `keep` accepts, *clearing the whole dirty set regardless*. Skipped
    /// tiles keep stale verdicts — this exists so the minimality proptests
    /// can demonstrate that every tile in the dirty set is load-bearing.
    /// Production code must call [`ChurnEngine::refresh`].
    #[doc(hidden)]
    pub fn refresh_where<K: Fn(usize) -> bool>(&mut self, keep: K) -> ChurnStats {
        let n = self.points.len();
        let dirty_count = self.dirty_list.len();
        let trace = self.trace;
        let _refresh_span =
            pacds_obs::span(trace, pacds_obs::SpanKind::ChurnRefresh, dirty_count as u32);
        let _refresh_timer = pacds_obs::phase_timer(pacds_obs::Phase::ChurnRefresh);

        // Solve list: dirty tiles passing the filter, largest-owned first.
        // Both lists are retained, so a warm refresh allocates nothing.
        self.solve.clear();
        self.solve
            .extend(self.dirty_list.iter().filter(|&&t| keep(t as usize)));
        let grid = &self.grid;
        self.weights.clear();
        self.weights.extend(
            self.solve
                .iter()
                .map(|&t| grid.owned(t as usize).len() as u64),
        );
        schedule_order(&mut self.order, &self.weights);
        // `order` holds indexes into `solve`; map back to tile ids so the
        // run closure receives real tiles.
        for slot in self.order.iter_mut() {
            *slot = self.solve[*slot as usize];
        }

        let nthreads = self
            .spec
            .resolved_threads()
            .clamp(1, self.order.len().max(1));
        ready_executors(&mut self.slots, &mut self.cursors, nthreads);

        let alive = &self.alive;
        let run = SpatialRun {
            grid: &self.grid,
            points: &self.points,
            ext: None,
            off: |g: usize| !alive[g],
            radius: self.radius,
            margin: self.margin_topo,
            energy: Some(&self.energy),
            cfg: &self.cfg,
        };
        let results_ptr = DisjointPtr(self.tile_results.as_mut_ptr());
        run_tiles(
            &mut self.pool,
            &mut self.slots,
            nthreads,
            &self.order,
            &self.cursors[..nthreads],
            |slot, t| {
                let _s = pacds_obs::span(trace, pacds_obs::SpanKind::ChurnTile, t as u32);
                // SAFETY: each tile id appears exactly once in `order`
                // and run_tiles claims each position exactly once, so
                // this entry is not aliased; the pool's completion
                // barrier orders the writes before run_tiles returns.
                let out = unsafe { results_ptr.entry(t) };
                std::mem::swap(out, &mut slot.results);
                slot.results.clear();
                run.solve_tile(slot, t);
                slot.results.sort_unstable_by_key(|&(g, _)| g);
                std::mem::swap(out, &mut slot.results);
            },
        );

        // Scatter: only re-solved tiles changed, and ownership makes the
        // writes disjoint. Gateway churn is counted here against the
        // previous merged mask.
        let sc = Instant::now();
        self.marked.resize(n, false);
        self.after1.resize(n, false);
        self.gateways.resize(n, false);
        let mut flips = 0u64;
        for &t in &self.order {
            for &(g, bits) in &self.tile_results[t as usize] {
                let g = g as usize;
                let gw = bits & 4 != 0;
                flips += u64::from(self.gateways[g] != gw);
                self.marked[g] = bits & 1 != 0;
                self.after1[g] = bits & 2 != 0;
                self.gateways[g] = gw;
            }
        }
        let scatter_ns = sc.elapsed().as_nanos() as u64;

        for &t in &self.dirty_list {
            self.dirty[t as usize] = false;
        }
        self.dirty_list.clear();

        self.stats = ChurnStats {
            events: self.events_pending,
            dirty_tiles: dirty_count,
            resolved_tiles: self.order.len(),
            total_tiles: self.grid.tiles(),
            gateway_flips: flips,
            halo_build_ns: self.slots.iter().map(|s| s.halo_build_ns).sum(),
            solve_ns: self.slots.iter().map(|s| s.solve_ns).sum(),
            scatter_ns,
            stolen_tiles: self.slots.iter().map(|s| s.tiles_stolen).sum(),
        };
        self.events_pending = 0;
        self.totals.refreshes += 1;
        self.totals.resolved_tiles += self.stats.resolved_tiles as u64;
        self.totals.gateway_flips += flips;
        pacds_obs::add(pacds_obs::Counter::ChurnRefreshes, 1);
        pacds_obs::add(
            pacds_obs::Counter::ChurnTilesResolved,
            self.stats.resolved_tiles as u64,
        );
        pacds_obs::add(pacds_obs::Counter::ChurnGatewayFlips, flips);
        self.stats
    }

    /// Applies a batch of events and refreshes once. Events are validated
    /// one by one: the first rejection stops the batch with already-applied
    /// events still pending (call [`ChurnEngine::refresh`] or keep
    /// streaming — the engine is never left inconsistent).
    pub fn step(&mut self, events: &[ChurnEvent]) -> Result<ChurnStats, ChurnError> {
        for ev in events {
            self.apply(ev)?;
        }
        Ok(self.refresh())
    }

    /// Node slots (alive + dead) in the persistent graph.
    pub fn n(&self) -> usize {
        self.points.len()
    }

    /// Tiles in the fixed grid.
    pub fn tiles(&self) -> usize {
        self.grid.tiles()
    }

    /// The engine's shape.
    pub fn spec(&self) -> ShardSpec {
        self.spec
    }

    /// The configuration the instance was opened with.
    pub fn cfg(&self) -> &CdsConfig {
        &self.cfg
    }

    /// Current positions (index = node id; dead nodes keep their last
    /// position).
    pub fn positions(&self) -> &[Point2] {
        &self.points
    }

    /// Current residual energy levels.
    pub fn energy(&self) -> &[u64] {
        &self.energy
    }

    /// Liveness flags (false = killed).
    pub fn alive(&self) -> &[bool] {
        &self.alive
    }

    /// The merged gateway mask as of the last refresh.
    pub fn gateways(&self) -> &VertexMask {
        &self.gateways
    }

    /// The merged marking-process mask as of the last refresh.
    pub fn marked(&self) -> &VertexMask {
        &self.marked
    }

    /// The merged after-Rule-1 mask as of the last refresh.
    pub fn after_rule1(&self) -> &VertexMask {
        &self.after1
    }

    /// Rounds the equivalent whole-graph pipeline reports (1 when the
    /// policy prunes, 0 otherwise) — constant across events.
    pub fn rounds(&self) -> usize {
        usize::from(self.cfg.policy.prunes())
    }

    /// Number of gateways in the current mask.
    pub fn gateway_count(&self) -> usize {
        self.gateways.iter().filter(|&&b| b).count()
    }

    /// Stats of the latest refresh.
    pub fn stats(&self) -> ChurnStats {
        self.stats
    }

    /// Lifetime totals across all refreshes.
    pub fn totals(&self) -> ChurnTotals {
        self.totals
    }

    /// Currently-dirty tiles (ascending); empty right after a refresh.
    pub fn dirty_tiles(&self) -> Vec<usize> {
        let mut v: Vec<usize> = self.dirty_list.iter().map(|&t| t as usize).collect();
        v.sort_unstable();
        v
    }

    /// The ids tile `t` owns (ascending), dead nodes included.
    pub fn tile_owned(&self, t: usize) -> &[u32] {
        self.grid.owned(t)
    }

    /// Tile `t`'s verdicts from its last solve, sorted by id:
    /// `(id, marked | after1 << 1 | gateway << 2)`. One entry per owned
    /// node (dead nodes carry 0).
    pub fn tile_result(&self, t: usize) -> &[(u32, u8)] {
        &self.tile_results[t]
    }

    /// The owning tile of `node`.
    pub fn tile_of_node(&self, node: NodeId) -> usize {
        self.grid.tile_of(self.points[node as usize])
    }

    /// The current off-mask (true = dead), allocated — diagnostics and
    /// differential-testing helper, not part of the warm path.
    pub fn off_mask(&self) -> Vec<bool> {
        self.alive.iter().map(|&a| !a).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ShardedCds;
    use pacds_core::Policy;
    use pacds_geom::placement;
    use rand::{Rng, SeedableRng};

    fn scratch_masks(eng: &ChurnEngine, bounds: Rect) -> (VertexMask, VertexMask, VertexMask) {
        let mut scratch = ShardedCds::new(ShardSpec::new(eng.tiles())).unwrap();
        let off = eng.off_mask();
        scratch
            .compute_unit_disk_masked(
                bounds,
                eng.radius,
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

    #[test]
    fn open_matches_batch_engine() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let pts = placement::uniform_points(&mut rng, Rect::paper_arena(), 150);
        let energy: Vec<u64> = (0..150u64).map(|v| (v * 13 + 5) % 97).collect();
        for policy in Policy::ALL {
            let cfg = CdsConfig::policy(policy);
            let eng = ChurnEngine::open(
                ShardSpec::new(4),
                Rect::paper_arena(),
                25.0,
                &pts,
                &energy,
                &cfg,
            )
            .unwrap();
            let (m, a, g) = scratch_masks(&eng, Rect::paper_arena());
            assert_eq!(eng.marked(), &m, "{policy:?}");
            assert_eq!(eng.after_rule1(), &a, "{policy:?}");
            assert_eq!(eng.gateways(), &g, "{policy:?}");
            // The seed solves none of the engine's own tiles.
            assert_eq!(eng.stats().resolved_tiles, 0);
            assert_eq!(eng.stats().total_tiles, eng.tiles());
            assert_eq!(eng.totals().refreshes, 1);
            assert_eq!(eng.totals().gateway_flips, eng.gateway_count() as u64);
        }
    }

    /// A square arena at the paper's density (100 hosts per 100×100).
    fn paper_density_side(n: usize) -> f64 {
        100.0 * (n as f64 / 100.0).sqrt()
    }

    #[test]
    fn derived_grid_tiles_are_twice_the_two_hop_margin() {
        let m = topo_margin(25.0);
        assert!((m - 50.0).abs() < 1e-6, "2-hop margin at r = 25 is 50: {m}");
        // The churn-reroute arena (n = 10⁵, side 3162) and the wire
        // arena (n = 10⁴, side 1000).
        let side = paper_density_side(100_000);
        assert_eq!(derived_grid(m, side, side, 100_000), (32, 32));
        let side = paper_density_side(10_000);
        assert_eq!(derived_grid(m, side, side, 10_000), (10, 10));
        // Wide domains tile along their long side.
        assert_eq!(derived_grid(m, 800.0, 200.0, 1600), (8, 2));
        // Degenerate inputs still give one tile.
        assert_eq!(derived_grid(m, 0.0, 0.0, 1), (1, 1));
        assert_eq!(derived_grid(m, 100.0, 100.0, 0), (1, 1));

        // The engine uses it when `shards == 0`: the paper arena is one
        // tile, a 400-wide arena at 1200 hosts is 4×4.
        let cfg = CdsConfig::policy(Policy::EnergyDegree);
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        for (side, n, tiles) in [(100.0, 100, 1), (400.0, 1200, 16)] {
            let bounds = Rect::square(side);
            let pts = placement::uniform_points(&mut rng, bounds, n);
            let energy = vec![7u64; n];
            let eng =
                ChurnEngine::open(ShardSpec::auto(), bounds, 25.0, &pts, &energy, &cfg).unwrap();
            assert_eq!(eng.tiles(), tiles, "side {side}, n {n}");
        }
    }

    #[test]
    fn sparse_arenas_keep_the_hosts_per_tile_floor() {
        let m = topo_margin(25.0);
        // At the paper's density the margin binds, not the floor.
        let (tx, ty) = derived_grid(m, 1000.0, 1000.0, 10_000);
        assert!(10_000 / (tx * ty) >= MIN_HOSTS_PER_TILE);
        let sparse = [
            (1000.0, 2000),
            (1000.0, 500),
            (3000.0, 4000),
            (500.0, 64),
            (700.0, 130),
        ];
        for (side, n) in sparse {
            let (tx, ty) = derived_grid(m, side, side, n);
            let per_tile = n as f64 / (tx * ty) as f64;
            assert!(
                per_tile >= MIN_HOSTS_PER_TILE as f64,
                "side {side}, n {n}: {tx}×{ty} tiles hold {per_tile:.1} hosts each"
            );
            // The floor binds: the margin alone would cut finer tiles.
            let margin_only = (side / (2.0 * m)).round() as usize;
            assert!(
                tx < margin_only,
                "side {side}, n {n}: {tx} vs {margin_only}"
            );
        }
    }

    #[test]
    fn seeded_tiles_hold_exactly_their_owned_verdicts() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let bounds = Rect::square(400.0);
        let pts = placement::uniform_points(&mut rng, bounds, 1200);
        let energy: Vec<u64> = (0..1200u64).map(|v| (v * 31 + 7) % 89).collect();
        for policy in Policy::ALL {
            let cfg = CdsConfig::policy(policy);
            let eng =
                ChurnEngine::open(ShardSpec::auto(), bounds, 25.0, &pts, &energy, &cfg).unwrap();
            assert!(eng.tiles() >= 16, "{policy:?}: {} tiles", eng.tiles());
            let mut covered = 0;
            for t in 0..eng.tiles() {
                let res = eng.tile_result(t);
                let ids: Vec<u32> = res.iter().map(|&(g, _)| g).collect();
                assert_eq!(ids, eng.tile_owned(t), "{policy:?} tile {t}");
                for &(g, bits) in res {
                    let g = g as usize;
                    assert_eq!(bits & 1 != 0, eng.marked()[g], "{policy:?} node {g}");
                    assert_eq!(bits & 2 != 0, eng.after_rule1()[g], "{policy:?} node {g}");
                    assert_eq!(bits & 4 != 0, eng.gateways()[g], "{policy:?} node {g}");
                }
                covered += res.len();
            }
            assert_eq!(covered, eng.n(), "{policy:?}");
            let (m, a, g) = scratch_masks(&eng, bounds);
            assert_eq!(eng.marked(), &m, "{policy:?}");
            assert_eq!(eng.after_rule1(), &a, "{policy:?}");
            assert_eq!(eng.gateways(), &g, "{policy:?}");
            assert!(eng.gateway_count() > 0, "{policy:?}");
            assert!(eng.dirty_tiles().is_empty(), "{policy:?}");
        }
    }

    #[test]
    fn every_event_kind_stays_bit_identical_to_scratch() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let bounds = Rect::paper_arena();
        let pts = placement::uniform_points(&mut rng, bounds, 200);
        let energy: Vec<u64> = (0..200u64).map(|v| (v * 7 + 3) % 50).collect();
        let cfg = CdsConfig::policy(Policy::EnergyDegree);
        let mut eng =
            ChurnEngine::open(ShardSpec::new(16), bounds, 25.0, &pts, &energy, &cfg).unwrap();

        for step in 0..60 {
            let ev = match step % 4 {
                0 => ChurnEvent::MoveNode {
                    node: rng.random_range(0..eng.n() as u32),
                    to: Point2::new(rng.random_range(0.0..100.0), rng.random_range(0.0..100.0)),
                },
                1 => ChurnEvent::AddNode {
                    pos: Point2::new(rng.random_range(0.0..100.0), rng.random_range(0.0..100.0)),
                    energy: rng.random_range(0..100),
                },
                2 => ChurnEvent::KillNode {
                    node: rng.random_range(0..eng.n() as u32),
                },
                _ => ChurnEvent::DrainBattery {
                    node: rng.random_range(0..eng.n() as u32),
                    remaining: rng.random_range(0..100),
                },
            };
            match eng.apply(&ev) {
                Ok(()) => {}
                Err(ChurnError::DeadNode { .. }) => continue, // dead target rolled
                Err(e) => panic!("unexpected rejection {e} for {ev:?}"),
            }
            eng.refresh();
            let (m, a, g) = scratch_masks(&eng, bounds);
            assert_eq!(eng.marked(), &m, "step {step} {ev:?}");
            assert_eq!(eng.after_rule1(), &a, "step {step} {ev:?}");
            assert_eq!(eng.gateways(), &g, "step {step} {ev:?}");
        }
        assert!(eng.totals().events > 0);
    }

    #[test]
    fn far_events_resolve_few_tiles() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let bounds = Rect::new(0.0, 0.0, 1000.0, 1000.0);
        let pts = placement::uniform_points(&mut rng, bounds, 2000);
        let energy = vec![10u64; 2000];
        let cfg = CdsConfig::policy(Policy::Degree);
        let mut eng =
            ChurnEngine::open(ShardSpec::new(64), bounds, 25.0, &pts, &energy, &cfg).unwrap();
        assert!(eng.tiles() >= 64);
        let st = eng
            .step(&[ChurnEvent::MoveNode {
                node: 0,
                to: Point2::new(500.0, 500.0),
            }])
            .unwrap();
        // A single move dirties tiles around two positions; with a 64-tile
        // 1000x1000 grid and a 50-unit margin that is a small corner of
        // the grid.
        assert!(
            st.resolved_tiles < eng.tiles() / 2,
            "resolved {} of {}",
            st.resolved_tiles,
            st.total_tiles
        );
        assert!(st.resolved_tiles >= 1);
    }

    #[test]
    fn energy_events_dirty_nothing_under_energy_blind_policies() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(10);
        let bounds = Rect::paper_arena();
        let pts = placement::uniform_points(&mut rng, bounds, 100);
        let energy = vec![50u64; 100];
        let cfg = CdsConfig::policy(Policy::Degree);
        let mut eng =
            ChurnEngine::open(ShardSpec::new(9), bounds, 25.0, &pts, &energy, &cfg).unwrap();
        let st = eng
            .step(&[ChurnEvent::DrainBattery {
                node: 3,
                remaining: 1,
            }])
            .unwrap();
        assert_eq!(st.resolved_tiles, 0, "Degree never reads energy");
        // The same event under an energy policy does dirty tiles.
        let cfg = CdsConfig::policy(Policy::Energy);
        let mut eng =
            ChurnEngine::open(ShardSpec::new(9), bounds, 25.0, &pts, &energy, &cfg).unwrap();
        let st = eng
            .step(&[ChurnEvent::DrainBattery {
                node: 3,
                remaining: 1,
            }])
            .unwrap();
        assert!(st.resolved_tiles >= 1);
        let (m, a, g) = scratch_masks(&eng, bounds);
        assert_eq!(eng.marked(), &m);
        assert_eq!(eng.after_rule1(), &a);
        assert_eq!(eng.gateways(), &g);
    }

    #[test]
    fn rejected_events_leave_state_untouched() {
        // A 3-node path: the centre is the sole gateway, so killing it
        // visibly changes the mask.
        let pts = vec![
            Point2::new(10.0, 50.0),
            Point2::new(30.0, 50.0),
            Point2::new(50.0, 50.0),
        ];
        let energy = vec![5, 5, 5];
        let cfg = CdsConfig::policy(Policy::Id);
        let mut eng = ChurnEngine::open(
            ShardSpec::new(1),
            Rect::paper_arena(),
            25.0,
            &pts,
            &energy,
            &cfg,
        )
        .unwrap();
        let before_gw = eng.gateways().clone();
        assert_eq!(eng.gateway_count(), 1, "the path centre is a gateway");

        assert_eq!(
            eng.apply(&ChurnEvent::MoveNode {
                node: 9,
                to: Point2::new(1.0, 1.0)
            }),
            Err(ChurnError::UnknownNode { node: 9, n: 3 })
        );
        assert_eq!(
            eng.apply(&ChurnEvent::MoveNode {
                node: 0,
                to: Point2::new(500.0, 1.0)
            }),
            Err(ChurnError::OutOfBounds { x: 500.0, y: 1.0 })
        );
        eng.apply(&ChurnEvent::KillNode { node: 1 }).unwrap();
        assert_eq!(
            eng.apply(&ChurnEvent::KillNode { node: 1 }),
            Err(ChurnError::DeadNode { node: 1 }),
            "double kill is a typed error"
        );
        assert_eq!(
            eng.apply(&ChurnEvent::DrainBattery {
                node: 1,
                remaining: 1
            }),
            Err(ChurnError::DeadNode { node: 1 })
        );
        assert!(eng.dirty_tiles().len() <= eng.tiles());
        eng.refresh();
        assert_ne!(eng.gateways(), &before_gw, "the kill did land");
    }

    #[test]
    fn unshardable_configs_are_rejected_at_open() {
        let pts = vec![Point2::new(1.0, 1.0)];
        let err = ChurnEngine::open(
            ShardSpec::new(1),
            Rect::paper_arena(),
            25.0,
            &pts,
            &[1],
            &CdsConfig::sequential(Policy::Id),
        )
        .err()
        .unwrap();
        assert!(matches!(err, ChurnError::Shard(ShardError::Unshardable(_))));
        assert_eq!(err.label(), "unshardable");
        let err = ChurnEngine::open(
            ShardSpec {
                shards: 1,
                halo: 1,
                threads: 1,
            },
            Rect::paper_arena(),
            25.0,
            &pts,
            &[1],
            &CdsConfig::policy(Policy::Id),
        )
        .err()
        .unwrap();
        assert_eq!(err.label(), "halo_too_small");
    }

    #[test]
    fn threaded_refresh_is_bit_identical_to_inline() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let bounds = Rect::paper_arena();
        let pts = placement::uniform_points(&mut rng, bounds, 300);
        let energy: Vec<u64> = (0..300u64).map(|v| (v * 11 + 1) % 60).collect();
        let cfg = CdsConfig::policy(Policy::Energy);
        let mut a =
            ChurnEngine::open(ShardSpec::new(16), bounds, 25.0, &pts, &energy, &cfg).unwrap();
        let mut b = ChurnEngine::open(
            ShardSpec {
                threads: 4,
                ..ShardSpec::new(16)
            },
            bounds,
            25.0,
            &pts,
            &energy,
            &cfg,
        )
        .unwrap();
        let events: Vec<ChurnEvent> = (0..40)
            .map(|i| ChurnEvent::MoveNode {
                node: i,
                to: Point2::new(rng.random_range(0.0..100.0), rng.random_range(0.0..100.0)),
            })
            .collect();
        for ev in &events {
            a.apply(ev).unwrap();
            b.apply(ev).unwrap();
            a.refresh();
            b.refresh();
            assert_eq!(a.gateways(), b.gateways());
            assert_eq!(a.marked(), b.marked());
        }
    }
}
