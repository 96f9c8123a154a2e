//! Incremental churn on the sharded CDS engine (`pacds-shard`'s
//! [`ChurnEngine`]).
//!
//! For each size in `PACDS_CHURN_SIZES` (default `10000,100000,1000000`)
//! the binary places a constant-density unit-disk instance, opens a
//! persistent [`ChurnEngine`], and drives `PACDS_CHURN_STEPS` (default
//! `25`) churn steps of `PACDS_CHURN_EVENTS` (default `8`) mixed events
//! each — mobility hops, battery drains, host deaths and arrivals — with
//! one incremental refresh per step. It measures:
//!
//! * **events/s** over the whole applied-and-refreshed stream,
//! * **re-solved tiles per step** against the total tile count — the
//!   headline locality claim: a churn step at `n = 10⁶` re-solves a few
//!   dozen of the engine's 10⁴ derived tiles, not all of them,
//! * **gateway churn per event** (verdict flips / events),
//! * the **from-scratch baseline** (`ShardedCds::compute_unit_disk` on
//!   the same instance) a non-incremental server would pay per step.
//!
//! After the stream, the final incremental state is asserted
//! **bit-identical** to a from-scratch masked recompute over the live
//! topology — the speedup column is only meaningful if both sides answer
//! the same question. Exits non-zero on divergence.
//!
//! Writes `BENCH_churn.json` (override: `PACDS_BENCH_OUT`).
//! Hand-written JSON: the bench crate deliberately takes no serde
//! dependency.

use pacds_core::{CdsConfig, Policy};
use pacds_geom::{Point2, Rect};
use pacds_shard::{ChurnEngine, ChurnEvent, ShardSpec, ShardedCds};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

const RADIUS: f64 = 25.0;

fn arena(n: usize) -> Rect {
    Rect::square((100.0 * (n as f64 / 100.0).sqrt()).max(1.0))
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn sizes() -> Vec<usize> {
    match std::env::var("PACDS_CHURN_SIZES") {
        Ok(s) => s
            .split(',')
            .map(|t| t.trim().parse().expect("PACDS_CHURN_SIZES: integers"))
            .collect(),
        Err(_) => vec![10_000, 100_000, 1_000_000],
    }
}

/// One step's worth of mixed events: mostly small mobility hops, some
/// drains, rare deaths and arrivals. Live-only events never target a
/// host killed earlier in the same batch, so every batch applies fully.
fn step_events(rng: &mut StdRng, engine: &ChurnEngine, bounds: Rect, count: usize) -> Vec<ChurnEvent> {
    let mut events = Vec::with_capacity(count);
    let mut killed = vec![false; engine.n()];
    while events.len() < count {
        let node = rng.random_range(0..engine.n() as u32);
        let alive = engine.alive()[node as usize] && !killed[node as usize];
        match rng.random_range(0..100u32) {
            0..=69 if alive => {
                let p = engine.positions()[node as usize];
                let to = Point2::new(
                    (p.x + rng.random_range(-RADIUS..RADIUS)).clamp(bounds.x0, bounds.x1),
                    (p.y + rng.random_range(-RADIUS..RADIUS)).clamp(bounds.y0, bounds.y1),
                );
                events.push(ChurnEvent::MoveNode { node, to });
            }
            70..=89 if alive => {
                let remaining = engine.energy()[node as usize].saturating_sub(1);
                events.push(ChurnEvent::DrainBattery { node, remaining });
            }
            90..=95 if alive => {
                killed[node as usize] = true;
                events.push(ChurnEvent::KillNode { node });
            }
            96..=99 => events.push(ChurnEvent::AddNode {
                pos: Point2::new(
                    rng.random_range(bounds.x0..bounds.x1),
                    rng.random_range(bounds.y0..bounds.y1),
                ),
                energy: rng.random_range(1..=10u64),
            }),
            _ => {} // dead host drawn for a live-only event: redraw
        }
    }
    events
}

fn main() -> ExitCode {
    let cfg = CdsConfig::policy(Policy::EnergyDegree);
    let steps = env_usize("PACDS_CHURN_STEPS", 25);
    let per_step = env_usize("PACDS_CHURN_EVENTS", 8);
    let machine_threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    let mut rows = Vec::new();

    for n in sizes() {
        let bounds = arena(n);
        let mut rng = StdRng::seed_from_u64(42);
        let points = pacds_geom::placement::uniform_points(&mut rng, bounds, n);
        let energy: Vec<u64> = (0..n).map(|i| (i as u64 * 7919) % 100 + 1).collect();

        // From-scratch baseline: what a non-incremental server pays for
        // every churn step, on the identical instance and spec.
        let spec = ShardSpec::all_cores();
        let mut scratch = ShardedCds::new(spec).expect("default halo");
        let t = Instant::now();
        scratch
            .compute_unit_disk(bounds, RADIUS, &points, Some(&energy), &cfg)
            .expect("benchmark config is shardable");
        let scratch_ns = t.elapsed().as_nanos() as f64;
        black_box(scratch.gateway_count());

        let t = Instant::now();
        let mut engine = ChurnEngine::open(spec, bounds, RADIUS, &points, &energy, &cfg)
            .expect("benchmark config is shardable");
        let open_ns = t.elapsed().as_nanos() as f64;
        let tiles = engine.tiles();
        let initial = engine.totals();

        let mut max_step_resolved = 0usize;
        let mut step_ns_sum = 0.0f64;
        let mut max_step_ns = 0.0f64;
        for _ in 0..steps {
            let events = step_events(&mut rng, &engine, bounds, per_step);
            let t = Instant::now();
            let stats = engine.step(&events).expect("batches are pre-validated");
            let ns = t.elapsed().as_nanos() as f64;
            step_ns_sum += ns;
            max_step_ns = max_step_ns.max(ns);
            max_step_resolved = max_step_resolved.max(stats.resolved_tiles);
            black_box(engine.gateway_count());
        }
        let totals = engine.totals();
        let events = totals.events - initial.events;
        let resolved = totals.resolved_tiles - initial.resolved_tiles;
        let flips = totals.gateway_flips - initial.gateway_flips;
        let mean_step_ns = step_ns_sum / steps.max(1) as f64;
        let events_per_s = events as f64 * 1e9 / step_ns_sum.max(1.0);

        // Identity gate: the incremental end state vs a fresh masked solve
        // over the live topology.
        let off = engine.off_mask();
        let mut oracle = ShardedCds::new(spec).expect("default halo");
        oracle
            .compute_unit_disk_masked(
                bounds,
                RADIUS,
                engine.positions(),
                Some(&off),
                Some(engine.energy()),
                &cfg,
            )
            .expect("benchmark config is shardable");
        if engine.gateways() != oracle.gateways()
            || engine.marked() != oracle.marked()
            || engine.after_rule1() != oracle.after_rule1()
        {
            eprintln!("error: n={n}: incremental state diverged from the masked recompute");
            return ExitCode::FAILURE;
        }

        println!(
            "n={n:>8}  tiles={tiles:>5}  scratch {scratch_ns:>12.0} ns/solve  \
             step {mean_step_ns:>10.0} ns mean (max {max_step_ns:.0})  \
             {:.1} tiles/step re-solved (max {max_step_resolved})  \
             {events_per_s:>8.0} events/s  {:.3} flips/event  speedup {:.1}x",
            resolved as f64 / steps.max(1) as f64,
            flips as f64 / events.max(1) as f64,
            scratch_ns / mean_step_ns.max(1.0),
        );
        rows.push(format!(
            concat!(
                "    {{\n",
                "      \"n\": {}, \"tiles\": {}, \"steps\": {}, \"events\": {},\n",
                "      \"open_ns\": {:.0}, \"scratch_solve_ns\": {:.0},\n",
                "      \"mean_step_ns\": {:.0}, \"max_step_ns\": {:.0},\n",
                "      \"resolved_tiles\": {}, \"resolved_tiles_per_step\": {:.2}, ",
                "\"max_step_resolved_tiles\": {},\n",
                "      \"gateway_flips\": {}, \"gateway_flips_per_event\": {:.4},\n",
                "      \"events_per_s\": {:.0}, \"speedup_vs_scratch\": {:.2}\n",
                "    }}"
            ),
            n,
            tiles,
            steps,
            events,
            open_ns,
            scratch_ns,
            mean_step_ns,
            max_step_ns,
            resolved,
            resolved as f64 / steps.max(1) as f64,
            max_step_resolved,
            flips,
            flips as f64 / events.max(1) as f64,
            events_per_s,
            scratch_ns / mean_step_ns.max(1.0),
        ));
    }

    let json = format!(
        concat!(
            "{{\n",
            "  \"benchmark\": \"churn_incremental\",\n",
            "  \"description\": \"pacds-shard ChurnEngine on constant-density unit-disk ",
            "instances (radius 25, ~19.6 expected neighbours), EnergyDegree policy: ",
            "{} steps of {} mixed events (70% mobility hop, 20% battery drain, 6% death, ",
            "4% arrival) with one incremental refresh per step, final state asserted ",
            "bit-identical to a from-scratch masked recompute. Schema per result: ",
            "open_ns is the engine open (includes the coarse seed solve); ",
            "scratch_solve_ns is a fresh ShardedCds full solve on the same instance — the ",
            "per-step cost of not being incremental; mean/max_step_ns time apply+refresh ",
            "of one whole step; resolved_tiles_per_step vs tiles is the locality headline ",
            "(a handful re-solved, not all); gateway_flips_per_event is the churn a ",
            "routing layer absorbs; speedup_vs_scratch = scratch_solve_ns / mean_step_ns. ",
            "Wall times depend on machine_threads\",\n",
            "  \"unit\": \"ns/step\",\n",
            "  \"machine_threads\": {},\n",
            "  \"results\": [\n{}\n  ]\n",
            "}}\n"
        ),
        steps,
        per_step,
        machine_threads,
        rows.join(",\n")
    );
    let out = std::env::var("PACDS_BENCH_OUT").unwrap_or_else(|_| "BENCH_churn.json".into());
    match std::fs::write(&out, &json) {
        Ok(()) => {
            eprintln!("wrote {out}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: cannot write {out}: {e}");
            ExitCode::FAILURE
        }
    }
}
