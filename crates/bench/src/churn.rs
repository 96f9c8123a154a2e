//! Incremental churn on the [`ChurnEngine`], driven by `pacds churn` and
//! `bench_churn`.
//!
//! [`run`] times one from-scratch [`ShardedCds`] solve of the instance
//! (the per-step cost of not being incremental), opens a churn engine on
//! it, and drives `steps` steps of mixed events from [`step_events`],
//! one refresh each. The end state — and, on request, every step — is
//! checked bit-identical to a from-scratch masked solve of the live
//! topology ([`scratch_identity`]).

use crate::row::Row;
use crate::{identical, meta, verdicts, Error, Instance};
use pacds_core::CdsConfig;
use pacds_geom::{Point2, Rect};
use pacds_shard::{ChurnEngine, ChurnEvent, ShardSpec, ShardedCds};
use rand::Rng;
use std::io::Write;
use std::time::Instant;

/// What one churn run drives.
#[derive(Debug, Clone, Copy)]
pub struct ChurnParams {
    pub spec: ShardSpec,
    pub cfg: CdsConfig,
    pub steps: usize,
    /// Events per step.
    pub events: usize,
    /// Check identity after every step, not only at the end.
    pub check_every_step: bool,
    /// Gate: the mean fraction of tiles re-solved per step.
    pub max_resolved_frac: f64,
}

/// One step's worth of mixed events: 70% mobility hops of up to `hop`,
/// 20% battery drains, 6% deaths, 4% arrivals. Live-only events never
/// target a host killed earlier in the same batch, so every batch
/// applies fully.
fn step_events(
    rng: &mut impl Rng,
    engine: &ChurnEngine,
    bounds: Rect,
    hop: f64,
    count: usize,
) -> Vec<ChurnEvent> {
    let mut events = Vec::with_capacity(count);
    let mut killed = vec![false; engine.n()];
    while events.len() < count {
        let node = rng.random_range(0..engine.n() as u32);
        let alive = engine.alive()[node as usize] && !killed[node as usize];
        match rng.random_range(0..100u32) {
            0..=69 if alive => {
                let p = engine.positions()[node as usize];
                let to = Point2::new(
                    (p.x + rng.random_range(-hop..hop)).clamp(bounds.x0, bounds.x1),
                    (p.y + rng.random_range(-hop..hop)).clamp(bounds.y0, bounds.y1),
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

/// The masked identity check: `engine`'s verdicts equal a from-scratch
/// sharded solve over its live hosts.
fn scratch_identity(engine: &ChurnEngine, bounds: Rect, radius: f64) -> Result<(), Error> {
    let off = engine.off_mask();
    let mut scratch = ShardedCds::new(engine.spec())?;
    scratch.compute_unit_disk_masked(
        bounds,
        radius,
        engine.positions(),
        Some(&off),
        Some(engine.energy()),
        engine.cfg(),
    )?;
    identical(
        "incremental vs from-scratch masked solve",
        verdicts!(engine),
        verdicts!(scratch),
    )
}

/// Opens a churn engine on `inst` and drives the event stream drawn from
/// `rng`, writing one line per step to `out`. Counts in the row cover the event
/// stream only, not the seed solve at open.
pub fn run(
    inst: &Instance,
    p: &ChurnParams,
    rng: &mut impl Rng,
    out: &mut dyn Write,
) -> Result<Row, Error> {
    let (bounds, radius, energy) = (inst.bounds, inst.radius, inst.energy.as_slice());
    let mut scratch = ShardedCds::new(p.spec)?;
    let t = Instant::now();
    scratch.compute_unit_disk(bounds, radius, &inst.points, Some(energy), &p.cfg)?;
    let scratch_ns = t.elapsed().as_nanos() as f64;
    drop(scratch);

    let t = Instant::now();
    let mut engine = ChurnEngine::open(p.spec, bounds, radius, &inst.points, energy, &p.cfg)?;
    let open_ns = t.elapsed().as_nanos() as f64;
    let tiles = engine.tiles();
    // Lifetime totals include the seed at open (one refresh, every
    // initial gateway a flip).
    let initial = engine.totals();
    writeln!(
        out,
        "churn: {} — {tiles} tiles, {} initial gateways",
        inst.label(&p.cfg),
        engine.gateway_count()
    )?;

    let (mut step_ns, mut max_ns, mut max_resolved, mut frac_sum) = (0.0, 0.0f64, 0, 0.0);
    let mut halo_ns = 0u64;
    let wall = Instant::now();
    for step in 1..=p.steps {
        let events = step_events(rng, &engine, bounds, radius.max(1e-9), p.events);
        // One trace id per step: the refresh and its dirty-tile
        // re-solves land as one causally-linked trace line.
        engine.set_trace(pacds_obs::next_trace_id());
        let t = Instant::now();
        let stats = engine.step(&events)?;
        let ns = t.elapsed().as_nanos() as f64;
        (step_ns, max_ns) = (step_ns + ns, max_ns.max(ns));
        max_resolved = max_resolved.max(stats.resolved_tiles);
        halo_ns += stats.halo_build_ns;
        frac_sum += stats.resolved_tiles as f64 / tiles.max(1) as f64;
        writeln!(
            out,
            "step {step:>3}: {} events, {}/{} tiles re-solved, {} gateway flips, {} gateways",
            stats.events,
            stats.resolved_tiles,
            stats.total_tiles,
            stats.gateway_flips,
            engine.gateway_count(),
        )?;
        if p.check_every_step || step == p.steps {
            scratch_identity(&engine, bounds, radius).map_err(|e| format!("step {step}: {e}"))?;
        }
    }
    let wall_s = wall.elapsed().as_secs_f64();
    let totals = engine.totals();
    let events = totals.events - initial.events;
    let refreshes = totals.refreshes - initial.refreshes;
    let resolved = totals.resolved_tiles - initial.resolved_tiles;
    let flips = totals.gateway_flips - initial.gateway_flips;
    let steps = p.steps.max(1) as f64;
    let (mean_frac, mean_step_ns) = (frac_sum / steps, step_ns / steps);
    let events_per_s = events as f64 * 1e9 / f64::max(step_ns, 1.0);
    let flips_per_event = flips as f64 / events.max(1) as f64;
    writeln!(
        out,
        "totals: {events} events in {wall_s:.3}s ({events_per_s:.0} events/s), {refreshes} \
         refreshes, {:.1} tiles re-solved/refresh (mean frac {mean_frac:.3}), \
         {flips_per_event:.2} gateway flips/event; bit-identical to the from-scratch recompute \
         {}",
        resolved as f64 / refreshes.max(1) as f64,
        if p.check_every_step {
            "after every step"
        } else {
            "at the end"
        },
    )?;
    if mean_frac > p.max_resolved_frac {
        return Err(format!(
            "max resolved frac {}: mean re-solved tile fraction was {mean_frac:.3} — churn is \
             not localized",
            p.max_resolved_frac
        )
        .into());
    }
    Ok(meta(inst, &p.cfg)
        .with("tiles", tiles)
        .with("steps", p.steps)
        .with("events", events)
        .with("refreshes", refreshes)
        .with("resolved_tiles", resolved)
        .fixed("resolved_tiles_per_step", resolved as f64 / steps, 2)
        .with("max_step_resolved_tiles", max_resolved)
        .with("gateway_flips", flips)
        .fixed("gateway_flips_per_event", flips_per_event, 4)
        .with("mean_resolved_frac", mean_frac)
        .with("checked", p.check_every_step)
        .fixed("open_ns", open_ns, 0)
        .fixed("scratch_solve_ns", scratch_ns, 0)
        .fixed("mean_step_ns", mean_step_ns, 0)
        .fixed("max_step_ns", max_ns, 0)
        .fixed("mean_step_halo_build_ns", halo_ns as f64 / steps, 0)
        .fixed("events_per_s", events_per_s, 0)
        .fixed("speedup_vs_scratch", scratch_ns / mean_step_ns.max(1.0), 2)
        .with("wall_s", wall_s))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pacds_core::Policy;
    use rand::SeedableRng;

    fn churn(max_resolved_frac: f64) -> Result<Row, Error> {
        let p = ChurnParams {
            spec: ShardSpec {
                threads: 1,
                ..ShardSpec::new(4)
            },
            cfg: CdsConfig::policy(Policy::EnergyDegree),
            steps: 3,
            events: 12,
            check_every_step: true,
            max_resolved_frac,
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        run(
            &crate::tests::instance(300, 25.0),
            &p,
            &mut rng,
            &mut std::io::sink(),
        )
    }

    #[test]
    fn a_checked_stream_passes_an_open_gate() {
        let json = churn(1.0).unwrap().json();
        assert!(json.contains("\"events\":36,\"refreshes\":3,"));
        assert!(json.contains("\"checked\":true"));
    }

    #[test]
    fn the_locality_gate_trips_at_zero() {
        assert!(churn(0.0).is_err());
    }
}
