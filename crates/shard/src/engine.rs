//! The sharded engine: per-tile retained workspaces, halo extraction,
//! ownership-filtered merge.

use crate::error::{check_shardable, ShardError};
use crate::pool::WorkerPool;
use crate::tiles::{hop_margin, CellOrder, SpatialRun, TileGrid};
use crate::REQUIRED_HALO;
use pacds_core::{CdsConfig, CdsWorkspace};
use pacds_geom::{Point2, Rect};
use pacds_graph::gen::UnitDiskScratch;
use pacds_graph::{Graph, NodeId, ReserveLike, VertexMask};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Shape of a sharded computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// Desired shard (tile/block) count. `0` sizes automatically: the
    /// batch [`ShardedCds`] takes about one shard per 2048 nodes, while a
    /// [`ChurnEngine`](crate::ChurnEngine) derives its grid from the
    /// geometry — tiles twice the 2-hop margin wide, at least 64 hosts
    /// each on average.
    pub shards: usize,
    /// Halo width in hops. [`REQUIRED_HALO`] is the proven exactness
    /// minimum; in [`ShardedCds`] wider halos only cost replication.
    /// Narrower halos are rejected by [`ShardedCds::new`] and
    /// [`ChurnEngine::open`](crate::ChurnEngine::open). A churn engine
    /// ignores a wider halo: its seeding solve and its own tiles always
    /// gather the exact 2-hop margin.
    pub halo: usize,
    /// Worker threads; `0` uses the machine's available parallelism, `1`
    /// solves every tile inline on the calling thread. Both paths are
    /// allocation-free once warm: the parallel path reuses a persistent
    /// worker pool spawned on the first computation, the inline path never
    /// touches threads at all.
    pub threads: usize,
}

impl ShardSpec {
    /// `shards` shards at the exact halo, solved inline (one thread).
    pub fn new(shards: usize) -> Self {
        Self {
            shards,
            halo: REQUIRED_HALO,
            threads: 1,
        }
    }

    /// Automatic shard count, exact halo, inline solve.
    pub fn auto() -> Self {
        Self::new(0)
    }

    /// Automatic shard count, exact halo, one executor per available core
    /// — the shape benches and the CLI should use when they mean
    /// "actually use the machine". (`auto()` deliberately stays inline:
    /// it is the conservative embedding default.)
    pub fn all_cores() -> Self {
        Self {
            shards: 0,
            halo: REQUIRED_HALO,
            threads: 0,
        }
    }

    pub(crate) fn resolved_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism().map_or(1, |p| p.get())
        } else {
            self.threads
        }
    }

    pub(crate) fn resolved_shards(&self, n: usize) -> usize {
        if self.shards == 0 {
            n.div_ceil(2048).clamp(1, 4096)
        } else {
            self.shards
        }
    }
}

/// Per-computation totals of the latest [`ShardedCds`] run. The
/// nanosecond figures are measured unconditionally (four `Instant` reads
/// per tile — noise next to a tile solve), so benches and the CLI report
/// per-phase timings without the `obs` feature; in multi-threaded runs the
/// per-tile phases sum worker CPU time, not wall time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Tiles (shards) solved.
    pub tiles: usize,
    /// Nodes merged by ownership (equals the instance's `n`).
    pub owned_nodes: usize,
    /// Halo (non-owned) nodes replicated into tiles, summed.
    pub halo_nodes: usize,
    /// Undirected edges whose endpoints are owned by different tiles.
    pub cross_tile_edges: u64,
    /// Time partitioning the point set into tiles and relabelling it into
    /// the internal order (spatial mode only).
    pub partition_ns: u64,
    /// Time gathering halos and building per-tile subgraphs.
    pub halo_build_ns: u64,
    /// Time in per-tile marking + rule passes (including result collection).
    pub solve_ns: u64,
    /// Time scattering per-tile verdicts into the output masks.
    pub merge_ns: u64,
    /// Tiles an executor took from another executor's stripe of the
    /// size-ordered schedule (0 on single-threaded runs, where there is
    /// nobody to steal from).
    pub stolen_tiles: u64,
}

/// One executor's work-distribution totals from the latest computation —
/// the evidence that parallel runs actually spread tiles across cores
/// (wall-clock speedup is machine-dependent; these counters are not).
/// Index 0 is the calling thread, which participates as an executor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ThreadWork {
    /// Tiles this executor solved (own stripe + stolen).
    pub tiles_solved: u64,
    /// Of those, tiles taken from another executor's stripe.
    pub tiles_stolen: u64,
    /// Wall time this executor spent inside the tile loop, nanoseconds.
    pub busy_ns: u64,
}

/// One worker's retained state; a slot solves many tiles sequentially, so
/// memory scales with threads x largest tile, not with shard count (plus,
/// in [`ShardedCds`], room for every verdict of a run in `results`).
/// `pub(crate)` so the churn engine reuses the exact same tile machinery.
#[derive(Debug, Default)]
pub(crate) struct WorkerSlot {
    pub(crate) ws: CdsWorkspace,
    pub(crate) csr: Graph,
    pub(crate) locals: Vec<u32>,
    /// The callers' ids of `locals`, when those are internal ids.
    pub(crate) ext: Vec<u32>,
    /// Local ids of the hosts the current tile owns, ascending: the only
    /// hosts whose Rule 1 and Rule 2 verdicts the tile decides and keeps.
    pub(crate) owned: Vec<NodeId>,
    pub(crate) owned_flags: Vec<bool>,
    pub(crate) energy: Vec<u64>,
    pub(crate) uds: UnitDiskScratch,
    pub(crate) g2l: Vec<u32>,
    pub(crate) seen: Vec<bool>,
    pub(crate) queue: Vec<u32>,
    pub(crate) results: Vec<(u32, u8)>,
    pub(crate) halo_nodes: usize,
    pub(crate) cross_edges: u64,
    pub(crate) halo_build_ns: u64,
    pub(crate) solve_ns: u64,
    pub(crate) tiles_solved: u64,
    pub(crate) tiles_stolen: u64,
    pub(crate) busy_ns: u64,
}

impl ReserveLike for WorkerSlot {
    fn reserve_like(&mut self, other: &Self) {
        self.ws.reserve_like(&other.ws);
        self.csr.reserve_like(&other.csr);
        self.locals.reserve_like(&other.locals);
        self.ext.reserve_like(&other.ext);
        self.owned.reserve_like(&other.owned);
        self.owned_flags.reserve_like(&other.owned_flags);
        self.energy.reserve_like(&other.energy);
        self.uds.reserve_like(&other.uds);
        self.g2l.reserve_like(&other.g2l);
        self.seen.reserve_like(&other.seen);
        self.queue.reserve_like(&other.queue);
        self.results.reserve_like(&other.results);
    }
}

impl WorkerSlot {
    pub(crate) fn begin(&mut self) {
        self.results.clear();
        self.halo_nodes = 0;
        self.cross_edges = 0;
        self.halo_build_ns = 0;
        self.solve_ns = 0;
        self.tiles_solved = 0;
        self.tiles_stolen = 0;
        self.busy_ns = 0;
    }
}

/// The sharded CDS engine.
///
/// Partitions an instance into shards, solves each shard's halo-expanded
/// induced subgraph on a retained [`CdsWorkspace`], and merges verdicts by
/// ownership. For every shardable configuration (see
/// [`check_shardable`](crate::check_shardable)) the merged `marked` /
/// `after_rule1` / `gateways` masks and round count are **bit-identical**
/// to [`CdsWorkspace::compute`] on the whole graph.
///
/// Two entry points: [`ShardedCds::compute_unit_disk`] shards a point set
/// geometrically and never materialises the whole-graph adjacency (the
/// large-`n` streaming path), and [`ShardedCds::compute_graph`] shards an
/// existing graph into contiguous id blocks with a BFS halo (the serving
/// path). All buffers are retained; with `threads == 1` a cache-warm
/// computation performs zero heap allocations.
///
/// The spatial path stores its live hosts in an internal tile-major,
/// cell-major order, rebuilt each call; callers only ever see their own
/// ids. Every priority key ends on the caller's id, so the order changes
/// no verdict.
#[derive(Debug, Default)]
pub struct ShardedCds {
    spec: ShardSpec,
    grid: TileGrid,
    /// The spatial path's internal order over the grid.
    cells: CellOrder,
    slots: Vec<WorkerSlot>,
    pool: WorkerPool,
    /// Tile ids sorted descending by estimated cost (the LPT schedule);
    /// executor `w` owns positions `w, w + W, w + 2W, ...`.
    order: Vec<u32>,
    /// Per-tile cost estimates backing the sort (owned population in the
    /// spatial mode, degree mass in the graph mode).
    weights: Vec<u64>,
    /// Per-executor stripe cursors; a fetch-add claims one stripe position,
    /// so every tile is executed exactly once whether taken by its owner
    /// or by a thief.
    cursors: Vec<AtomicUsize>,
    marked: VertexMask,
    after1: VertexMask,
    gateways: VertexMask,
    rounds: usize,
    stats: ShardStats,
    /// Trace id spans of the next computation are attributed to
    /// ([`pacds_obs::TraceId::NONE`] = unsampled, spans are no-ops).
    trace: pacds_obs::TraceId,
}

impl Default for ShardSpec {
    fn default() -> Self {
        Self::auto()
    }
}

impl ShardedCds {
    /// An engine with the given shape. Rejects halos below
    /// [`REQUIRED_HALO`] — a narrower halo provably breaks bit-identity
    /// (see the corridor proptest in `tests/props.rs`).
    pub fn new(spec: ShardSpec) -> Result<Self, ShardError> {
        if spec.halo < REQUIRED_HALO {
            return Err(ShardError::HaloTooSmall {
                halo: spec.halo,
                required: REQUIRED_HALO,
            });
        }
        Ok(Self::with_unchecked_halo(spec))
    }

    /// An engine that skips the halo-width validation. Exists so tests and
    /// diagnostics can *demonstrate* why [`REQUIRED_HALO`] is the minimum;
    /// results below it are not exact.
    pub fn with_unchecked_halo(spec: ShardSpec) -> Self {
        Self {
            spec,
            ..Self::default()
        }
    }

    /// The engine's shape.
    pub fn spec(&self) -> ShardSpec {
        self.spec
    }

    /// Attributes the spans of subsequent computations to `trace` (the
    /// serving layer threads each request's id through here). Sticky until
    /// changed; [`pacds_obs::TraceId::NONE`] turns attribution back off.
    #[inline]
    pub fn set_trace(&mut self, trace: pacds_obs::TraceId) {
        self.trace = trace;
    }

    /// Sharded CDS of the unit-disk graph of `points` (radius-`radius`
    /// within `bounds`) — the geometry is partitioned into tiles and each
    /// tile's subgraph is built directly from the points, so the whole
    /// adjacency structure never exists in memory.
    ///
    /// Bit-identical to the whole-graph pipeline on the same instance for
    /// every shardable `cfg`.
    ///
    /// # Panics
    /// Panics if `radius <= 0`, or if `cfg.policy.needs_energy()` and
    /// `energy` is absent or of the wrong length (the
    /// [`CdsWorkspace::compute`] contract).
    pub fn compute_unit_disk(
        &mut self,
        bounds: Rect,
        radius: f64,
        points: &[Point2],
        energy: Option<&[u64]>,
        cfg: &CdsConfig,
    ) -> Result<&VertexMask, ShardError> {
        self.compute_unit_disk_masked(bounds, radius, points, None, energy, cfg)
    }

    /// [`ShardedCds::compute_unit_disk`] with an optional off-mask: hosts
    /// flagged in `off` keep their id slot but are treated as switched off
    /// (no edges in either direction, all verdict bits false) — the same
    /// dead-host model as [`pacds_graph::gen::unit_disk_csr`]. This is the
    /// from-scratch reference the churn engine is pinned against: an
    /// isolated host affects nobody's neighbourhood, degree, or priority,
    /// so excluding it from each tile's subgraph is bit-identical to the
    /// whole-graph pipeline run with that host isolated. Off hosts get no
    /// internal id at all: no tile gathers or solves them.
    ///
    /// # Panics
    /// As [`ShardedCds::compute_unit_disk`], plus `off` (when present) must
    /// have one flag per point.
    pub fn compute_unit_disk_masked(
        &mut self,
        bounds: Rect,
        radius: f64,
        points: &[Point2],
        off: Option<&[bool]>,
        energy: Option<&[u64]>,
        cfg: &CdsConfig,
    ) -> Result<&VertexMask, ShardError> {
        check_shardable(cfg)?;
        assert!(radius > 0.0, "transmission radius must be positive");
        let n = points.len();
        if let Some(e) = energy {
            assert_eq!(e.len(), n, "energy length must equal point count");
        }
        if let Some(o) = off {
            assert_eq!(o.len(), n, "off-mask length must equal point count");
        }

        let shards = self.spec.resolved_shards(n);
        let pt = Instant::now();
        {
            let _t = pacds_obs::phase_timer(pacds_obs::Phase::ShardPartition);
            let tiles = grid_for(shards, bounds.width(), bounds.height());
            let domain = TileGrid::domain(bounds, points);
            self.grid
                .fill_cell_major(domain, tiles, radius, points, off, &mut self.cells);
        }
        let partition_ns = pt.elapsed().as_nanos() as u64;

        let ntiles = self.grid.tiles();
        let nthreads = self.spec.resolved_threads().clamp(1, ntiles.max(1));
        self.ensure_slots(nthreads, n);

        // LPT schedule: owned population is the cheap, accurate-enough
        // proxy for a tile's halo-build + solve cost.
        let grid = &self.grid;
        self.weights.clear();
        self.weights
            .extend((0..ntiles).map(|t| grid.owned_count(t) as u64));
        schedule_order(&mut self.order, &self.weights);

        let run = SpatialRun {
            grid,
            points: &self.cells.points,
            ext: Some(&self.cells.ext),
            off: |_: usize| false,
            radius,
            margin: hop_margin(self.spec.halo, radius),
            energy,
            cfg,
        };
        let trace = self.trace;
        let _dispatch = pacds_obs::span(trace, pacds_obs::SpanKind::ShardDispatch, ntiles as u32);
        run_tiles(
            &mut self.pool,
            &mut self.slots,
            nthreads,
            &self.order,
            &self.cursors[..nthreads],
            |slot, t| {
                let _s = pacds_obs::span(trace, pacds_obs::SpanKind::TileSolve, t as u32);
                run.solve_tile(slot, t);
            },
        );
        drop(_dispatch);

        // The single-pass schedule runs exactly one (Rule 1; Rule 2) round
        // when the policy prunes — same as the whole-graph workspace.
        let off_hosts = n - self.cells.ext.len();
        let rounds = usize::from(cfg.policy.prunes());
        self.finish(n, off_hosts, ntiles, partition_ns, rounds)
    }

    /// Sharded CDS of an existing graph: vertices are split into
    /// `spec.shards` contiguous id blocks, each solved against a
    /// `spec.halo`-hop BFS halo. Used where the graph already exists (the
    /// serving layer's decoded edge lists, the conformance corpus); the
    /// win over one whole-graph workspace is that the dense neighbour
    /// bitmap only ever spans a block plus its halo.
    ///
    /// Bit-identical to the whole-graph pipeline for every shardable `cfg`.
    ///
    /// # Panics
    /// Same contract as [`ShardedCds::compute_unit_disk`] for `energy`.
    pub fn compute_graph(
        &mut self,
        g: &Graph,
        energy: Option<&[u64]>,
        cfg: &CdsConfig,
    ) -> Result<&VertexMask, ShardError> {
        check_shardable(cfg)?;
        let n = g.n();
        if let Some(e) = energy {
            assert_eq!(e.len(), n, "energy length must equal vertex count");
        }

        let nblocks = self.spec.resolved_shards(n).min(n.max(1));
        let halo = self.spec.halo;
        let nthreads = self.spec.resolved_threads().clamp(1, nblocks);
        self.ensure_slots(nthreads, n);

        // LPT schedule: block populations are near-uniform by
        // construction, so weigh blocks by degree mass (one `degree` read
        // per vertex — noise next to the BFS halo that follows).
        self.weights.clear();
        self.weights.extend((0..nblocks).map(|b| {
            (b * n / nblocks..(b + 1) * n / nblocks)
                .map(|v| g.degree(v as NodeId) as u64 + 1)
                .sum::<u64>()
        }));
        schedule_order(&mut self.order, &self.weights);

        let cfg_ref = cfg;
        let trace = self.trace;
        let _dispatch = pacds_obs::span(trace, pacds_obs::SpanKind::ShardDispatch, nblocks as u32);
        run_tiles(
            &mut self.pool,
            &mut self.slots,
            nthreads,
            &self.order,
            &self.cursors[..nthreads],
            |slot, b| {
                let _s = pacds_obs::span(trace, pacds_obs::SpanKind::TileSolve, b as u32);
                let lo = (b * n / nblocks) as u32;
                let hi = ((b + 1) * n / nblocks) as u32;
                let hb = Instant::now();
                {
                    let _t = pacds_obs::phase_timer(pacds_obs::Phase::ShardHaloBuild);
                    gather_bfs_halo(slot, g, lo, hi, halo);
                    let (csr, locals, g2l) = (&mut slot.csr, &slot.locals, &mut slot.g2l);
                    csr.rebuild_induced(g, locals, g2l);
                }
                slot.halo_build_ns += hb.elapsed().as_nanos() as u64;

                // `locals` ascends, so the block's hosts are one run of it.
                let first = slot.locals.partition_point(|&v| v < lo) as NodeId;
                slot.owned.clear();
                slot.owned.extend(first..first + (hi - lo));
                solve_locals(slot, None, energy, cfg_ref);
            },
        );
        drop(_dispatch);

        self.finish(n, 0, nblocks, 0, usize::from(cfg.policy.prunes()))
    }

    /// Readies `nthreads` executors' slots for a run over `n` nodes. Each
    /// slot's `results` can hold all `n` verdicts, so no split of the
    /// tiles between executors can grow it.
    fn ensure_slots(&mut self, nthreads: usize, n: usize) {
        ready_executors(&mut self.slots, &mut self.cursors, nthreads);
        for slot in &mut self.slots {
            slot.results.reserve(n);
        }
    }

    /// Ownership-filtered merge + stats/obs flush; every node but the
    /// `off_hosts` no tile solved is owned by exactly one tile, so the
    /// scatter covers each of them exactly once (the off hosts keep
    /// all-false bits).
    fn finish(
        &mut self,
        n: usize,
        off_hosts: usize,
        tiles: usize,
        partition_ns: u64,
        rounds: usize,
    ) -> Result<&VertexMask, ShardError> {
        self.rounds = rounds;
        let mg = Instant::now();
        let merged = {
            let _s = pacds_obs::span(self.trace, pacds_obs::SpanKind::ShardMerge, tiles as u32);
            let _t = pacds_obs::phase_timer(pacds_obs::Phase::ShardMerge);
            self.marked.clear();
            self.marked.resize(n, false);
            self.after1.clear();
            self.after1.resize(n, false);
            self.gateways.clear();
            self.gateways.resize(n, false);
            let mut merged = 0usize;
            for slot in &self.slots {
                for &(g, bits) in &slot.results {
                    let g = g as usize;
                    self.marked[g] = bits & 1 != 0;
                    self.after1[g] = bits & 2 != 0;
                    self.gateways[g] = bits & 4 != 0;
                }
                merged += slot.results.len();
            }
            merged
        };
        assert_eq!(
            merged + off_hosts,
            n,
            "ownership merge must cover every node exactly once"
        );

        self.stats = ShardStats {
            tiles,
            owned_nodes: n,
            halo_nodes: self.slots.iter().map(|s| s.halo_nodes).sum(),
            cross_tile_edges: self.slots.iter().map(|s| s.cross_edges).sum(),
            partition_ns,
            halo_build_ns: self.slots.iter().map(|s| s.halo_build_ns).sum(),
            solve_ns: self.slots.iter().map(|s| s.solve_ns).sum(),
            merge_ns: mg.elapsed().as_nanos() as u64,
            stolen_tiles: self.slots.iter().map(|s| s.tiles_stolen).sum(),
        };
        pacds_obs::add(pacds_obs::Counter::ShardComputes, 1);
        pacds_obs::add(pacds_obs::Counter::ShardTiles, tiles as u64);
        pacds_obs::add(pacds_obs::Counter::ShardOwnedNodes, n as u64);
        pacds_obs::add(
            pacds_obs::Counter::ShardHaloNodes,
            self.stats.halo_nodes as u64,
        );
        pacds_obs::add(
            pacds_obs::Counter::ShardCrossTileEdges,
            self.stats.cross_tile_edges,
        );
        pacds_obs::add(
            pacds_obs::Counter::ShardTilesStolen,
            self.stats.stolen_tiles,
        );
        pacds_obs::add(
            pacds_obs::Counter::ShardBusyNs,
            self.slots.iter().map(|s| s.busy_ns).sum(),
        );
        Ok(&self.gateways)
    }

    /// The merged gateway mask of the latest computation.
    #[inline]
    pub fn gateways(&self) -> &VertexMask {
        &self.gateways
    }

    /// Number of gateways in the latest result.
    pub fn gateway_count(&self) -> usize {
        self.gateways.iter().filter(|&&b| b).count()
    }

    /// The merged marking-process output of the latest computation.
    #[inline]
    pub fn marked(&self) -> &VertexMask {
        &self.marked
    }

    /// The merged after-Rule-1 mask of the latest computation.
    #[inline]
    pub fn after_rule1(&self) -> &VertexMask {
        &self.after1
    }

    /// Rounds executed (matches the whole-graph workspace: 1 when the
    /// policy prunes, 0 otherwise).
    #[inline]
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Totals of the latest computation.
    #[inline]
    pub fn stats(&self) -> ShardStats {
        self.stats
    }

    /// Per-executor work distribution of the latest computation (index 0
    /// is the calling thread). Allocates — a diagnostics accessor, not
    /// part of the warm path.
    pub fn thread_work(&self) -> Vec<ThreadWork> {
        self.slots
            .iter()
            .map(|s| ThreadWork {
                tiles_solved: s.tiles_solved,
                tiles_stolen: s.tiles_stolen,
                busy_ns: s.busy_ns,
            })
            .collect()
    }
}

/// The per-tile solve tail shared by both modes: slice energy, run the
/// retained workspace on the local subgraph deciding only the owned hosts
/// (`slot.owned`), collect their verdicts and the halo/cross-edge tallies.
///
/// `ext` maps the ids in `slot.locals` to the callers' ids; `None` when
/// they are the callers' ids already (graph blocks, churn tiles). Energy,
/// the priority key's id tie-break and the pushed verdicts all use the
/// callers' ids, so a tile decides the same whatever order stores it.
pub(crate) fn solve_locals(
    slot: &mut WorkerSlot,
    ext: Option<&[u32]>,
    energy: Option<&[u64]>,
    cfg: &CdsConfig,
) {
    slot.owned_flags.clear();
    slot.owned_flags.resize(slot.locals.len(), false);
    for &li in &slot.owned {
        slot.owned_flags[li as usize] = true;
    }
    let sv = Instant::now();
    {
        let _t = pacds_obs::phase_timer(pacds_obs::Phase::ShardSolve);
        let ids: &[u32] = match ext {
            Some(ext) => {
                slot.ext.clear();
                slot.ext
                    .extend(slot.locals.iter().map(|&l| ext[l as usize]));
                &slot.ext
            }
            None => &slot.locals,
        };
        let energy_local = match energy {
            Some(e) if cfg.policy.needs_energy() => {
                slot.energy.clear();
                slot.energy.extend(ids.iter().map(|&g| e[g as usize]));
                Some(slot.energy.as_slice())
            }
            _ => None,
        };
        slot.ws
            .compute_owned(&slot.csr, ids, &slot.owned, energy_local, cfg);

        let (marked, after1, gw) = (slot.ws.marked(), slot.ws.after_rule1(), slot.ws.gateways());
        for &li in &slot.owned {
            let i = li as usize;
            let bits = u8::from(marked[i]) | (u8::from(after1[i]) << 1) | (u8::from(gw[i]) << 2);
            slot.results.push((ids[i], bits));
        }

        slot.halo_nodes += slot.locals.len() - slot.owned.len();
        let mut cross = 0u64;
        for &li in &slot.owned {
            let g = ids[li as usize];
            for &lu in slot.csr.neighbors(li) {
                // Count each cross-ownership edge once: from the tile
                // owning the smaller-id endpoint.
                if !slot.owned_flags[lu as usize] && ids[lu as usize] > g {
                    cross += 1;
                }
            }
        }
        slot.cross_edges += cross;
    }
    slot.solve_ns += sv.elapsed().as_nanos() as u64;
}

/// Collects into `slot.locals` (ascending) every vertex within `halo` hops
/// of the id block `[lo, hi)`, using the slot's retained BFS scratch.
fn gather_bfs_halo(slot: &mut WorkerSlot, g: &Graph, lo: u32, hi: u32, halo: usize) {
    if slot.seen.len() < g.n() {
        slot.seen.resize(g.n(), false);
    }
    slot.queue.clear();
    for v in lo..hi {
        slot.seen[v as usize] = true;
        slot.queue.push(v);
    }
    let mut frontier = 0usize;
    for _ in 0..halo {
        let end = slot.queue.len();
        for qi in frontier..end {
            let v = slot.queue[qi];
            for &u in g.neighbors(v) {
                if !slot.seen[u as usize] {
                    slot.seen[u as usize] = true;
                    slot.queue.push(u);
                }
            }
        }
        frontier = end;
    }
    slot.locals.clear();
    slot.locals.extend_from_slice(&slot.queue);
    slot.locals.sort_unstable();
    for &v in &slot.queue {
        slot.seen[v as usize] = false;
    }
}

/// Readies `nthreads` executors: grows the slot and cursor tables, rewinds
/// every cursor and resets every slot — not just the ones this run will
/// use: the stats sum over all slots, and a previous wider run must not
/// leak results or tallies into this one.
pub(crate) fn ready_executors(
    slots: &mut Vec<WorkerSlot>,
    cursors: &mut Vec<AtomicUsize>,
    nthreads: usize,
) {
    if slots.len() < nthreads {
        slots.resize_with(nthreads, WorkerSlot::default);
    }
    if cursors.len() < nthreads {
        cursors.resize_with(nthreads, AtomicUsize::default);
    }
    for c in cursors.iter() {
        c.store(0, Ordering::Relaxed);
    }
    for slot in slots.iter_mut() {
        slot.begin();
    }
}

/// Refills `order` with `0..weights.len()` sorted descending by weight —
/// the LPT (longest-processing-time-first) schedule. Big tiles start
/// first, so the stragglers at the end of the run are the *small* tiles
/// and the final imbalance is bounded by one small tile per executor,
/// instead of a worst case where an executor picks up the largest tile
/// last. In-place `sort_unstable` on a retained buffer: allocation-free
/// once warm. Equal weights tie-break on the tile id, keeping schedules
/// reproducible run to run.
pub(crate) fn schedule_order(order: &mut Vec<u32>, weights: &[u64]) {
    order.clear();
    order.extend(0..weights.len() as u32);
    order.sort_unstable_by_key(|&t| (std::cmp::Reverse(weights[t as usize]), t));
}

/// Base pointer of a table shared with the pool job whose entries the
/// executors mutate: executor slots (one per executor id) and the churn
/// engine's per-tile results (each tile claimed exactly once), so the
/// mutable accesses are disjoint by construction.
pub(crate) struct DisjointPtr<T>(pub(crate) *mut T);
// SAFETY: the one field is only dereferenced through `entry`, whose
// caller guarantees that each entry is reached by one executor at a time.
// Handing that exclusive access to another thread is sound for `T: Send`.
unsafe impl<T: Send> Send for DisjointPtr<T> {}
// SAFETY: as for `Send`: shared references to the pointer only ever yield
// disjoint `&mut T`, never a shared `&T`, so `T: Send` suffices.
unsafe impl<T: Send> Sync for DisjointPtr<T> {}

impl<T> DisjointPtr<T> {
    /// # Safety
    /// The caller must ensure `i` is in bounds and that no other live
    /// reference aliases entry `i`.
    #[allow(clippy::mut_from_ref)]
    pub(crate) unsafe fn entry(&self, i: usize) -> &mut T {
        &mut *self.0.add(i)
    }
}

/// Runs `f` over every tile in `order`, one executor per slot of
/// `slots[..nworkers]`.
///
/// A single slot runs inline with no thread traffic at all. With more,
/// the persistent pool runs a strided-stripe schedule over the
/// size-ordered `order`: executor `w` owns positions `w, w + W, ...`
/// (interleaving spreads the big front-of-order tiles evenly), claims
/// them through its own atomic cursor, and when its stripe runs dry
/// steals from the other stripes — every claim is a `fetch_add`, so each
/// tile runs exactly once no matter who takes it. Per-slot
/// solved/stolen/busy tallies feed [`ShardStats`], [`ThreadWork`] and the
/// obs per-thread table.
///
/// Which executor takes which tile follows thread wake-up times, so
/// afterwards every slot in `slots`, idle ones included, is grown to fit
/// every tile of the run ([`warm_evenly`]). Otherwise a slot that only
/// got small tiles while warming up could allocate in a later run that
/// hands it a big one.
pub(crate) fn run_tiles<F>(
    pool: &mut WorkerPool,
    slots: &mut [WorkerSlot],
    nworkers: usize,
    order: &[u32],
    cursors: &[AtomicUsize],
    f: F,
) where
    F: Fn(&mut WorkerSlot, usize) + Sync,
{
    if nworkers <= 1 {
        let slot = &mut slots[0];
        let start = Instant::now();
        for &t in order {
            f(slot, t as usize);
        }
        slot.tiles_solved += order.len() as u64;
        slot.busy_ns += start.elapsed().as_nanos() as u64;
        pacds_obs::shard_thread_tiles_tick(order.len() as u64);
        warm_evenly(slots);
        return;
    }
    // The executors index `slots` through a raw pointer below.
    assert!(nworkers <= slots.len(), "one slot per executor");
    debug_assert!(cursors.len() >= nworkers);
    let base = DisjointPtr(slots.as_mut_ptr());
    pool.run(nworkers, &|id| {
        // SAFETY: executor ids within one generation are distinct and
        // `id < nworkers <= slots.len()`, so each executor holds the only
        // reference to its slot; the pool's completion barrier orders all
        // slot writes before `run_tiles` goes on.
        let slot = unsafe { base.entry(id) };
        let start = Instant::now();
        let (mut solved, mut stolen) = (0u64, 0u64);
        'tiles: loop {
            // Own stripe first; on a dry stripe, sweep the others.
            for d in 0..nworkers {
                let v = (id + d) % nworkers;
                let k = cursors[v].fetch_add(1, Ordering::Relaxed);
                let pos = v + k * nworkers;
                if pos < order.len() {
                    f(slot, order[pos] as usize);
                    solved += 1;
                    stolen += u64::from(d != 0);
                    continue 'tiles;
                }
            }
            break;
        }
        slot.tiles_solved += solved;
        slot.tiles_stolen += stolen;
        slot.busy_ns += start.elapsed().as_nanos() as u64;
        pacds_obs::shard_thread_tiles_tick(solved);
    });
    warm_evenly(slots);
}

/// Grows every slot to the largest capacity any slot holds, buffer by
/// buffer: any later split of the same tiles then fits without
/// allocating.
fn warm_evenly(slots: &mut [WorkerSlot]) {
    for i in 1..slots.len() {
        let (head, tail) = slots.split_at_mut(i);
        head[0].reserve_like(&tail[0]);
    }
    for i in 1..slots.len() {
        let (head, tail) = slots.split_at_mut(i);
        tail[0].reserve_like(&head[0]);
    }
}

/// Picks a tile grid of about `shards` tiles matching the domain's aspect
/// ratio (square domains get square grids: 4 -> 2x2, 16 -> 4x4).
pub(crate) fn grid_for(shards: usize, width: f64, height: f64) -> (usize, usize) {
    let s = shards.max(1);
    let aspect = if width > 0.0 && height > 0.0 {
        width / height
    } else {
        1.0
    };
    let tx = (((s as f64) * aspect).sqrt().round() as usize).clamp(1, s);
    let ty = s.div_ceil(tx);
    (tx, ty)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pacds_core::Policy;
    use pacds_geom::placement;
    use pacds_graph::gen;
    use rand::SeedableRng;
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    /// Counts the heap allocations of the current thread, so the
    /// parallel test runner cannot charge one test's to another.
    struct CountingAlloc;

    thread_local! {
        static ALLOCS: Cell<usize> = const { Cell::new(0) };
    }

    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
            unsafe { System.alloc(layout) }
        }
        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
            unsafe { System.realloc(ptr, layout, new_size) }
        }
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) }
        }
    }

    #[global_allocator]
    static A: CountingAlloc = CountingAlloc;

    fn allocs() -> usize {
        ALLOCS.with(Cell::get)
    }

    #[test]
    fn slot_warmth_does_not_depend_on_the_steal_schedule() {
        // A two-executor engine whose second executor never claims a tile
        // — what happens when the pool thread wakes after the caller has
        // claimed the whole schedule. `threads: 1` replays that split on
        // the calling thread, deterministically: slot 0 solves every
        // tile, slot 1 none. If slot 1 then gets the whole schedule (the
        // caller late instead), it must already fit every tile.
        let mut rng = rand::rngs::StdRng::seed_from_u64(96);
        let bounds = Rect::square(300.0);
        let pts = placement::uniform_points(&mut rng, bounds, 1000);
        let energy: Vec<u64> = (0..1000u64).map(|i| (i * 6271) % 100).collect();
        let cfg = CdsConfig::policy(Policy::EnergyDegree);
        let mut eng = ShardedCds::new(ShardSpec::new(8)).unwrap();
        eng.ensure_slots(2, 1000);
        for round in 0..4 {
            let before = allocs();
            eng.compute_unit_disk(bounds, 25.0, &pts, Some(&energy), &cfg)
                .unwrap();
            if round > 0 {
                assert_eq!(allocs() - before, 0, "round {round}: a slot grew");
            }
            eng.slots.swap(0, 1);
        }
    }

    #[test]
    fn grid_for_matches_the_issue_shard_counts() {
        assert_eq!(grid_for(1, 100.0, 100.0), (1, 1));
        assert_eq!(grid_for(2, 100.0, 100.0), (1, 2));
        assert_eq!(grid_for(4, 100.0, 100.0), (2, 2));
        assert_eq!(grid_for(16, 100.0, 100.0), (4, 4));
        // Wide domains shard along x.
        let (tx, ty) = grid_for(8, 400.0, 100.0);
        assert!(tx > ty);
        assert!(tx * ty >= 8);
    }

    #[test]
    fn narrow_halo_is_rejected_and_unchecked_escape_exists() {
        let narrow = ShardSpec {
            shards: 4,
            halo: REQUIRED_HALO - 1,
            threads: 1,
        };
        assert_eq!(
            ShardedCds::new(narrow).err(),
            Some(ShardError::HaloTooSmall {
                halo: 1,
                required: REQUIRED_HALO
            })
        );
        let _ = ShardedCds::with_unchecked_halo(narrow);
        assert!(ShardedCds::new(ShardSpec::new(4)).is_ok());
    }

    #[test]
    fn unshardable_configs_return_typed_errors_without_computing() {
        let mut eng = ShardedCds::new(ShardSpec::new(4)).unwrap();
        let pts = vec![Point2::new(1.0, 1.0), Point2::new(2.0, 1.0)];
        let cfg = CdsConfig::sequential(Policy::Id);
        assert!(matches!(
            eng.compute_unit_disk(Rect::paper_arena(), 25.0, &pts, None, &cfg),
            Err(ShardError::Unshardable(_))
        ));
        let g = gen::path(5);
        assert!(matches!(
            eng.compute_graph(&g, None, &CdsConfig::fixpoint(Policy::Degree)),
            Err(ShardError::Unshardable(_))
        ));
    }

    #[test]
    fn spatial_mode_matches_the_whole_graph_workspace() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(91);
        let mut ws = CdsWorkspace::new();
        for n in [0usize, 1, 5, 60, 250] {
            let pts = placement::uniform_points(&mut rng, Rect::paper_arena(), n);
            let energy: Vec<u64> = (0..n as u64).map(|v| (v * 13 + 5) % 40).collect();
            let whole = gen::unit_disk(Rect::paper_arena(), 25.0, &pts);
            for shards in [1usize, 2, 4, 16] {
                let mut eng = ShardedCds::new(ShardSpec::new(shards)).unwrap();
                for policy in Policy::ALL {
                    let cfg = CdsConfig::policy(policy);
                    let got = eng
                        .compute_unit_disk(Rect::paper_arena(), 25.0, &pts, Some(&energy), &cfg)
                        .unwrap()
                        .clone();
                    let expected = ws.compute(&whole, Some(&energy), &cfg).clone();
                    assert_eq!(got, expected, "n={n} shards={shards} {policy:?}");
                    assert_eq!(eng.marked(), ws.marked(), "n={n} shards={shards}");
                    assert_eq!(eng.after_rule1(), ws.after_rule1(), "n={n} shards={shards}");
                    assert_eq!(eng.rounds(), ws.rounds(), "n={n} shards={shards}");
                }
            }
        }
    }

    #[test]
    fn masked_mode_matches_the_whole_graph_with_isolated_hosts() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(97);
        let pts = placement::uniform_points(&mut rng, Rect::paper_arena(), 180);
        let energy: Vec<u64> = (0..180u64).map(|v| (v * 13 + 5) % 97).collect();
        let mut off = vec![false; 180];
        for i in [0usize, 17, 63, 118, 179] {
            off[i] = true;
        }
        let mut whole = Graph::default();
        whole.rebuild_from_masked(&gen::unit_disk(Rect::paper_arena(), 25.0, &pts), &off);
        let mut ws = CdsWorkspace::new();
        for shards in [1usize, 4, 16] {
            let mut eng = ShardedCds::new(ShardSpec::new(shards)).unwrap();
            for policy in Policy::ALL {
                let cfg = CdsConfig::policy(policy);
                let got = eng
                    .compute_unit_disk_masked(
                        Rect::paper_arena(),
                        25.0,
                        &pts,
                        Some(&off),
                        Some(&energy),
                        &cfg,
                    )
                    .unwrap()
                    .clone();
                let expected = ws.compute(&whole, Some(&energy), &cfg).clone();
                assert_eq!(got, expected, "shards={shards} {policy:?}");
                assert_eq!(eng.marked(), ws.marked(), "shards={shards} {policy:?}");
                assert_eq!(
                    eng.after_rule1(),
                    ws.after_rule1(),
                    "shards={shards} {policy:?}"
                );
                for i in [0usize, 17, 63, 118, 179] {
                    assert!(!got[i], "off hosts never serve as gateways");
                }
            }
        }
    }

    #[test]
    fn graph_mode_matches_the_whole_graph_workspace() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(92);
        let mut ws = CdsWorkspace::new();
        for n in [0usize, 1, 7, 80] {
            let g = gen::gnp(&mut rng, n, 0.15);
            let energy: Vec<u64> = (0..n as u64).map(|v| (v * 7 + 1) % 30).collect();
            for shards in [1usize, 2, 4, 16] {
                let mut eng = ShardedCds::new(ShardSpec::new(shards)).unwrap();
                for policy in Policy::ALL {
                    let cfg = CdsConfig::policy(policy);
                    let got = eng.compute_graph(&g, Some(&energy), &cfg).unwrap().clone();
                    let expected = ws.compute(&g, Some(&energy), &cfg).clone();
                    assert_eq!(got, expected, "n={n} shards={shards} {policy:?}");
                }
            }
        }
    }

    #[test]
    fn multi_threaded_solve_is_bit_identical_to_inline() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(93);
        let pts = placement::uniform_points(&mut rng, Rect::paper_arena(), 300);
        let cfg = CdsConfig::policy(Policy::Degree);
        let mut inline = ShardedCds::new(ShardSpec::new(16)).unwrap();
        let a = inline
            .compute_unit_disk(Rect::paper_arena(), 25.0, &pts, None, &cfg)
            .unwrap()
            .clone();
        let mut threaded = ShardedCds::new(ShardSpec {
            threads: 4,
            ..ShardSpec::new(16)
        })
        .unwrap();
        let b = threaded
            .compute_unit_disk(Rect::paper_arena(), 25.0, &pts, None, &cfg)
            .unwrap()
            .clone();
        assert_eq!(a, b);
        assert_eq!(inline.stats().halo_nodes, threaded.stats().halo_nodes);
        assert_eq!(
            inline.stats().cross_tile_edges,
            threaded.stats().cross_tile_edges
        );
    }

    #[test]
    fn stats_are_consistent() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(94);
        let pts = placement::uniform_points(&mut rng, Rect::paper_arena(), 200);
        let mut eng = ShardedCds::new(ShardSpec::new(4)).unwrap();
        let cfg = CdsConfig::policy(Policy::Id);
        eng.compute_unit_disk(Rect::paper_arena(), 25.0, &pts, None, &cfg)
            .unwrap();
        let st = eng.stats();
        assert_eq!(st.tiles, 4);
        assert_eq!(st.owned_nodes, 200);
        assert!(st.halo_nodes > 0, "4 tiles on a 100x100 arena need halos");
        assert!(st.cross_tile_edges > 0);
        // Cross edges are a subset of all edges.
        let whole = gen::unit_disk(Rect::paper_arena(), 25.0, &pts);
        assert!(st.cross_tile_edges <= whole.m() as u64);
        // With a single shard there is no halo and no cross edge.
        let mut one = ShardedCds::new(ShardSpec::new(1)).unwrap();
        one.compute_unit_disk(Rect::paper_arena(), 25.0, &pts, None, &cfg)
            .unwrap();
        assert_eq!(one.stats().halo_nodes, 0);
        assert_eq!(one.stats().cross_tile_edges, 0);
    }

    #[test]
    fn schedule_is_descending_by_weight_with_id_tie_break() {
        let mut order = Vec::new();
        schedule_order(&mut order, &[3, 9, 1, 9, 3]);
        assert_eq!(order, vec![1, 3, 0, 4, 2]);
        schedule_order(&mut order, &[]);
        assert!(order.is_empty());
        // The buffer is fully refilled, not appended.
        schedule_order(&mut order, &[5]);
        assert_eq!(order, vec![0]);
    }

    #[test]
    fn thread_work_tallies_cover_every_tile_exactly_once() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(95);
        let pts = placement::uniform_points(&mut rng, Rect::paper_arena(), 400);
        let cfg = CdsConfig::policy(Policy::Id);

        let mut inline = ShardedCds::new(ShardSpec::new(16)).unwrap();
        inline
            .compute_unit_disk(Rect::paper_arena(), 25.0, &pts, None, &cfg)
            .unwrap();
        let w = inline.thread_work();
        assert_eq!(w.iter().map(|t| t.tiles_solved).sum::<u64>(), 16);
        assert_eq!(w.iter().map(|t| t.tiles_stolen).sum::<u64>(), 0);
        assert_eq!(inline.stats().stolen_tiles, 0);
        assert!(w[0].busy_ns > 0, "the inline executor records busy time");

        let mut par = ShardedCds::new(ShardSpec {
            threads: 3,
            ..ShardSpec::new(16)
        })
        .unwrap();
        par.compute_unit_disk(Rect::paper_arena(), 25.0, &pts, None, &cfg)
            .unwrap();
        let w = par.thread_work();
        assert_eq!(
            w.iter().map(|t| t.tiles_solved).sum::<u64>(),
            16,
            "strided claims must cover each tile exactly once: {w:?}"
        );
        let stolen: u64 = w.iter().map(|t| t.tiles_stolen).sum();
        assert_eq!(par.stats().stolen_tiles, stolen);
        assert!(
            w.iter().all(|t| t.tiles_stolen <= t.tiles_solved),
            "stolen tiles are a subset of solved tiles: {w:?}"
        );
        // Graph mode maintains the same invariant.
        let mut rng = rand::rngs::StdRng::seed_from_u64(96);
        let g = gen::gnp(&mut rng, 120, 0.1);
        let mut eng = ShardedCds::new(ShardSpec {
            threads: 2,
            ..ShardSpec::new(8)
        })
        .unwrap();
        eng.compute_graph(&g, None, &cfg).unwrap();
        let w = eng.thread_work();
        assert_eq!(w.iter().map(|t| t.tiles_solved).sum::<u64>(), 8);
    }

    #[test]
    fn all_cores_spec_uses_machine_parallelism() {
        let spec = ShardSpec::all_cores();
        assert_eq!(spec.threads, 0);
        assert_eq!(spec.halo, REQUIRED_HALO);
        assert!(spec.resolved_threads() >= 1);
        // auto() stays inline — embedding code that asks for no threads
        // gets none.
        assert_eq!(ShardSpec::auto().threads, 1);
    }

    #[test]
    fn auto_shards_scale_with_n() {
        assert_eq!(ShardSpec::auto().resolved_shards(0), 1);
        assert_eq!(ShardSpec::auto().resolved_shards(2048), 1);
        assert_eq!(ShardSpec::auto().resolved_shards(100_000), 49);
        assert_eq!(ShardSpec::auto().resolved_shards(10_000_000), 4096);
    }
}
