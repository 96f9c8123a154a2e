//! The sharded batch solve, driven by `pacds shard` and `bench_shard`.
//!
//! [`run`] solves one [`Instance`] with [`ShardedCds::compute_unit_disk`]
//! (the fastest of `reps` runs is kept), optionally checks the result
//! bit-identical to the whole-graph [`CdsWorkspace`] pipeline, and
//! returns a row of phase timings and the per-executor work distribution.

use crate::row::Row;
use crate::{identical, meta, verdicts, Error, Instance};
use pacds_core::{CdsConfig, CdsWorkspace};
use pacds_graph::gen;
use pacds_shard::{ShardSpec, ShardStats, ShardedCds};
use std::time::Instant;

/// Ceiling of the whole-graph check: its dense neighbour bitmap takes
/// `n²` bits (1.25 GB at 10⁵). Past it only the sharded engine runs.
pub const WHOLE_GRAPH_LIMIT: usize = 100_000;

/// What one sharded solve runs.
#[derive(Debug, Clone, Copy)]
pub struct ShardParams {
    pub spec: ShardSpec,
    pub cfg: CdsConfig,
    /// Solves to run; the fastest is reported.
    pub reps: usize,
    /// Also run the whole-graph pipeline (where `n` ≤
    /// [`WHOLE_GRAPH_LIMIT`]) and require bit-identity.
    pub check: bool,
    /// Gate: at least this many executors must solve a tile.
    pub expect_workers: usize,
}

/// Solves `inst` on a fresh engine of `p.spec` and prints a summary. The
/// engine is returned with the row, holding the masks for further
/// identity checks.
pub fn run(inst: &Instance, p: &ShardParams) -> Result<(Row, ShardedCds), Error> {
    let mut engine = ShardedCds::new(p.spec)?;
    let (mut ns, mut s, mut work) = (f64::INFINITY, ShardStats::default(), Vec::new());
    for _ in 0..p.reps.max(1) {
        let t = Instant::now();
        let energy = Some(inst.energy.as_slice());
        engine.compute_unit_disk(inst.bounds, inst.radius, &inst.points, energy, &p.cfg)?;
        let elapsed = t.elapsed().as_nanos() as f64;
        if elapsed < ns {
            (ns, s, work) = (elapsed, engine.stats(), engine.thread_work());
        }
    }
    // Retained slots past the run's width report 0.
    if p.spec.threads > 0 {
        work.truncate(p.spec.threads);
    }
    let tiles: Vec<u64> = work.iter().map(|w| w.tiles_solved).collect();
    let active = tiles.iter().filter(|&&t| t > 0).count();
    let count = |mask: &[bool]| mask.iter().filter(|&&b| b).count();
    let (marked, after_rule1) = (count(engine.marked()), count(engine.after_rule1()));
    println!(
        "shard: {} — {} tiles, {} halo nodes, {} cross-tile edges",
        inst.label(&p.cfg),
        s.tiles,
        s.halo_nodes,
        s.cross_tile_edges
    );
    println!(
        "result: {marked} marked, {after_rule1} after Rule 1, {} gateways, {} round(s)",
        engine.gateway_count(),
        engine.rounds()
    );
    let secs = |ns: u64| ns as f64 / 1e9;
    println!(
        "time: {:.3}s total (partition {:.3}s, halo build {:.3}s, solve {:.3}s, merge {:.3}s)",
        ns / 1e9,
        secs(s.partition_ns),
        secs(s.halo_build_ns),
        secs(s.solve_ns),
        secs(s.merge_ns)
    );
    // Work distribution: the machine-independent evidence that a parallel
    // run actually spread tiles across executors.
    println!(
        "workers: {active} executor(s) active, tiles {tiles:?}, {} stolen",
        s.stolen_tiles
    );
    if active < p.expect_workers {
        return Err(format!(
            "expected {} workers: only {active} executor(s) solved a tile (tiles {tiles:?})",
            p.expect_workers
        )
        .into());
    }
    let whole_ns = match p.check {
        true => whole_graph(inst, &p.cfg, p.reps, &engine)?,
        false => None,
    };
    if let Some(w) = whole_ns {
        println!(
            "check: bit-identical to the whole-graph pipeline ({:.3}s vs sharded {:.3}s — \
             {:.2}x)",
            w / 1e9,
            ns / 1e9,
            w / ns
        );
    }
    let row = meta(inst, &p.cfg)
        .with("shards", p.spec.shards)
        .with("halo", p.spec.halo)
        .with("threads", p.spec.threads)
        .with("tiles", s.tiles)
        .with("owned_nodes", s.owned_nodes)
        .with("halo_nodes", s.halo_nodes)
        .with("cross_tile_edges", s.cross_tile_edges)
        .with("marked", marked)
        .with("after_rule1", after_rule1)
        .with("gateways", engine.gateway_count())
        .with("rounds", engine.rounds())
        .with("partition_ns", s.partition_ns)
        .with("halo_build_ns", s.halo_build_ns)
        .with("solve_ns", s.solve_ns)
        .with("merge_ns", s.merge_ns)
        .with("stolen_tiles", s.stolen_tiles)
        .with("tiles_per_thread", tiles)
        .with(
            "busy_ns_per_thread",
            work.iter().map(|w| w.busy_ns).collect::<Vec<_>>(),
        )
        .fixed("ns", ns, 0)
        .with("total_s", ns / 1e9)
        .with("whole_graph_s", whole_ns.map(|w| w / 1e9))
        .fixed("whole_graph_ns", whole_ns.unwrap_or(f64::NAN), 0)
        .fixed(
            "speedup_vs_whole_graph",
            whole_ns.unwrap_or(f64::NAN) / ns,
            3,
        );
    Ok((row, engine))
}

/// The whole-graph check: the fastest of `reps` [`CdsWorkspace`] solves
/// of `inst`, required bit-identical to `sharded`. `None` past
/// [`WHOLE_GRAPH_LIMIT`].
fn whole_graph(
    inst: &Instance,
    cfg: &CdsConfig,
    reps: usize,
    sharded: &ShardedCds,
) -> Result<Option<f64>, Error> {
    if inst.n() > WHOLE_GRAPH_LIMIT {
        return Ok(None);
    }
    let g = gen::unit_disk(inst.bounds, inst.radius, &inst.points);
    let mut ws = CdsWorkspace::with_capacity(inst.n());
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        ws.compute(&g, Some(&inst.energy), cfg);
        best = best.min(t.elapsed().as_nanos() as f64);
    }
    identical(
        "sharded vs whole-graph pipeline",
        verdicts!(sharded),
        verdicts!(ws),
    )?;
    Ok(Some(best))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pacds_core::Policy;

    fn solve(threads: usize, expect_workers: usize) -> Result<(Row, ShardedCds), Error> {
        let p = ShardParams {
            spec: ShardSpec {
                threads,
                ..ShardSpec::new(4)
            },
            cfg: CdsConfig::policy(Policy::EnergyDegree),
            reps: 1,
            check: true,
            expect_workers,
        };
        run(&crate::tests::instance(600, 25.0), &p)
    }

    #[test]
    fn a_checked_solve_reports_the_whole_graph_time() {
        let json = solve(1, 1).unwrap().0.json();
        assert!(json.starts_with("{\"n\":600,\"radius\":25,"));
        assert!(json.contains("\"tiles\":4,") && json.contains("\"tiles_per_thread\":[4]"));
        assert!(!json.contains("\"whole_graph_ns\":null"));
    }

    #[test]
    fn the_worker_gate_trips_past_the_thread_count() {
        assert!(solve(2, 3).is_err());
    }
}
