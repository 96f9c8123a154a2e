//! `churn-reroute`: incremental churn and kill-and-reroute forwarding on a
//! constant-density unit-disk instance with n = 10⁵ and radius 25.
//!
//! * Churn phase: a stream of 8-event `ChurnEngine::step`s (70% move, 20%
//!   drain, 6% kill, 4% add). Every `STEPS_PER_SOLVE` steps a retained
//!   `ShardedCds` solves the churned state from scratch (masked); its
//!   marked, Rule-1 and gateway masks must equal the engine's bit for bit.
//! * Forwarding phase: a `ChurnNet` + `Dataplane` pair forwards `FLOWS`
//!   unicast flows from random sources to `SINKS` fixed sinks in warm
//!   waves. After every `WAVES_PER_KILL` waves a gateway on an active route
//!   dies, and the benchmark times kill → stale wave (NACKs) →
//!   `ChurnNet::refresh` → `install_tables` → `requeue_nacked` →
//!   redelivery. Every injected packet must arrive and no packet may be
//!   forwarded into a dead host.
//!
//! Both engines run one shard-pool thread. End-to-end slots: `ops_per_s`
//! = churn events absorbed per second (`churn.events_per_s`),
//! `update_ms` = one churn step (`churn.step_ms`), `scratch_ms` = the
//! masked scratch solve (`shard.solve_ms`), `response_ms` = kill to the
//! last redelivered packet (`dp.reroute_ms.p50`).

use crate::metrics::Outcome;
use crate::stats::{tail, Rate, Samples};
use crate::trace::{Tracer, CHECK};
use crate::Opts;
use pacds_core::{CdsConfig, Policy};
use pacds_dataplane::{ChurnNet, Dataplane};
use pacds_geom::{Point2, Rect};
use pacds_shard::{ChurnEngine, ChurnEvent, ChurnStats, ShardSpec, ShardedCds};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

pub const N: usize = 100_000;
pub const RADIUS: f64 = 25.0;
pub const EVENTS_PER_STEP: usize = 8;
/// Flows from random sources, spread evenly over the sinks.
pub const FLOWS: usize = 256;
/// Fixed sink positions, as fractions of the arena: the hosts nearest the
/// four quarter points. A reroute rebuilds one destination tree per sink
/// its NACKed packets head for.
pub const SINKS: [(f64, f64); 4] = [(0.25, 0.25), (0.75, 0.25), (0.25, 0.75), (0.75, 0.75)];
pub const PACKETS: usize = 32;
const STEPS_PER_SOLVE: usize = 10;
/// Untraced steps per rate block; `churn.events_per_s` is the median
/// block's.
const BLOCK_STEPS: usize = 10;
/// Churn steps an untraced run measures at least (fixes the tail
/// percentile).
pub const MIN_STEPS: usize = 10 * STEPS_PER_SOLVE;
const WAVES_PER_KILL: usize = 32;
/// Reroute drills an untraced run measures at least.
pub const MIN_DRILLS: usize = 9;
const SETUP_REPS: usize = 3;

/// Square arena keeping the paper's density (100 hosts per 100×100).
pub fn arena(n: usize) -> Rect {
    Rect::square((100.0 * (n as f64 / 100.0).sqrt()).max(1.0))
}

pub fn cds_config() -> CdsConfig {
    CdsConfig::policy(Policy::EnergyDegree)
}

/// Single-thread shard pool, automatic tile count.
fn spec() -> ShardSpec {
    ShardSpec::new(0)
}

/// One step's events: 70% move, 20% drain, 6% kill, 4% add. Live-only
/// events never target a host killed earlier in the batch.
pub fn step_events(
    rng: &mut StdRng,
    engine: &ChurnEngine,
    bounds: Rect,
    count: usize,
) -> Vec<ChurnEvent> {
    let mut events = Vec::with_capacity(count);
    let mut killed = Vec::new();
    while events.len() < count {
        let node = rng.random_range(0..engine.n() as u32);
        let alive = engine.alive()[node as usize] && !killed.contains(&node);
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
                killed.push(node);
                events.push(ChurnEvent::KillNode { node });
            }
            96..=99 => events.push(ChurnEvent::AddNode {
                pos: Point2::new(
                    rng.random_range(bounds.x0..bounds.x1),
                    rng.random_range(bounds.y0..bounds.y1),
                ),
                energy: rng.random_range(1..=100u64),
            }),
            _ => {} // a dead host drawn for a live-only event: redraw
        }
    }
    events
}

/// Everything the set-up builds.
pub struct World {
    pub bounds: Rect,
    pub engine: ChurnEngine,
    pub oracle: ShardedCds,
    pub net: ChurnNet,
    pub dp: Dataplane,
    pub flows: Vec<u32>,
    pub endpoints: Vec<(u32, u32)>,
    pub protected: Vec<bool>,
    pub rng: StdRng,
    pub shard_open_ms: f64,
    pub dp_open_ms: f64,
}

/// Builds the instance, both engines, the tables and the flows.
pub fn build(seed: u64, n: usize, flows: usize) -> Result<World, String> {
    let cfg = cds_config();
    let mut rng = StdRng::seed_from_u64(seed);
    let bounds = arena(n);
    let points = pacds_geom::placement::uniform_points(&mut rng, bounds, n);
    let energy: Vec<u64> = (0..n).map(|_| rng.random_range(1..=100u64)).collect();
    let t = Instant::now();
    let engine = ChurnEngine::open(spec(), bounds, RADIUS, &points, &energy, &cfg)
        .map_err(|e| format!("churn engine open: {e}"))?;
    let shard_open_ms = t.elapsed().as_secs_f64() * 1e3;
    let oracle = ShardedCds::new(spec()).map_err(|e| format!("sharded solver: {e}"))?;
    let t = Instant::now();
    let net = ChurnNet::open(spec(), bounds, RADIUS, &points, &energy, &cfg)
        .map_err(|e| format!("churn net open: {e}"))?;
    let mut dp = Dataplane::new();
    dp.install_tables(net.gateway(), net.alive());
    let dp_open_ms = t.elapsed().as_secs_f64() * 1e3;

    // Routable flows from random sources to the sinks in turn. The sinks sit
    // at fixed places in the arena, so path lengths do not depend on the
    // seed; endpoints never die, so every flow stays deliverable.
    let mut protected = vec![false; n];
    let sinks: Vec<u32> = SINKS
        .iter()
        .map(|&(fx, fy)| {
            let at = Point2::new(
                bounds.x0 + fx * (bounds.x1 - bounds.x0),
                bounds.y0 + fy * (bounds.y1 - bounds.y0),
            );
            (0..n)
                .min_by(|&a, &b| points[a].distance2(at).total_cmp(&points[b].distance2(at)))
                .expect("a non-empty instance") as u32
        })
        .collect();
    let (mut ids, mut endpoints, mut probe) = (Vec::new(), Vec::new(), Vec::new());
    while ids.len() < flows {
        let d = sinks[ids.len() % sinks.len()];
        let s = rng.random_range(0..n as u32);
        if s == d
            || dp
                .routes_mut()
                .assemble(net.graph(), s, d, &mut probe)
                .is_err()
        {
            continue;
        }
        protected[s as usize] = true;
        protected[d as usize] = true;
        endpoints.push((s, d));
        ids.push(dp.add_flow(s, d));
    }
    Ok(World {
        bounds,
        engine,
        oracle,
        net,
        dp,
        flows: ids,
        endpoints,
        protected,
        rng,
        shard_open_ms,
        dp_open_ms,
    })
}

/// Churn-phase measurements.
#[derive(Debug, Default)]
pub struct ChurnPass {
    /// Untraced steps.
    pub step_ms: Samples,
    /// Traced steps (traced run only).
    pub traced_step_ms: Samples,
    /// Events per second of each block of `BLOCK_STEPS` untraced steps.
    pub block_events_per_s: Samples,
    pub solve_ms: Samples,
    pub stats: Vec<ChurnStats>,
    pub scratch: [Samples; 4],
}

impl ChurnPass {
    /// The median block's event rate: robust to the machine pausing the
    /// process for part of the run.
    pub fn events_per_s(&self) -> f64 {
        self.block_events_per_s.p50()
    }
}

/// Forwarding-phase measurements.
#[derive(Debug, Default)]
pub struct ForwardPass {
    pub wave_ms: Samples,
    /// Forwarded hops per second of each warm wave.
    pub wave_hops_per_s: Samples,
    pub hops: u64,
    pub delivered: u64,
    pub reroute_ms: Samples,
    /// Reroutes of the untraced drills of a traced pass.
    pub plain_reroute_ms: Samples,
    pub nacked: Samples,
    pub trees: Samples,
    /// Per drill: refresh minus the engine's halo + solve + scatter, ms.
    pub adjacency_ms: Samples,
}

impl ForwardPass {
    /// The median wave's forwarding rate: robust to the machine pausing
    /// the process during a few waves.
    pub fn hops_per_s(&self) -> f64 {
        self.wave_hops_per_s.p50()
    }
}

/// Churn steps (with periodic scratch-solve checks) until `budget` has
/// passed and at least `min_steps` untraced steps ran. With `alternate`,
/// every odd step and every scratch solve is traced.
pub fn churn_pass(
    w: &mut World,
    budget: Duration,
    min_steps: usize,
    alternate: bool,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> ChurnPass {
    let cfg = cds_config();
    let start = Instant::now();
    let mut pass = ChurnPass::default();
    let mut block = Rate::default();
    while pass.step_ms.len() < min_steps || start.elapsed() < budget {
        for i in 0..STEPS_PER_SOLVE {
            if alternate {
                tr.set_on(i % 2 == 1);
            }
            let events = step_events(&mut w.rng, &w.engine, w.bounds, EVENTS_PER_STEP);
            let t = Instant::now();
            let stats = if tr.on() {
                let root = tr.open(0, "shard", "step");
                let mut ok = true;
                for ev in &events {
                    ok &= tr
                        .time(root, "shard", "apply", || w.engine.apply(ev))
                        .is_ok();
                }
                let stats = tr.time(root, "shard", "refresh", || w.engine.refresh());
                tr.close(root);
                ok.then_some(stats)
            } else {
                w.engine.step(&events).ok()
            };
            let dt = t.elapsed();
            let ms = dt.as_secs_f64() * 1e3;
            if tr.on() {
                pass.traced_step_ms.push(ms);
            } else {
                pass.step_ms.push(ms);
                block.add(events.len() as u64, dt.as_nanos());
                if pass.step_ms.len() % BLOCK_STEPS == 0 {
                    pass.block_events_per_s.push(block.per_s());
                    block = Rate::default();
                }
            }
            out.check(stats.is_some());
            pass.stats.extend(stats);
        }

        // The scratch solve, timed; its comparison is the check.
        if alternate {
            tr.set_on(true);
        }
        let off = w.engine.off_mask();
        let t = Instant::now();
        let solved = tr.time(0, "shard", "scratch_solve", || {
            w.oracle
                .compute_unit_disk_masked(
                    w.bounds,
                    RADIUS,
                    w.engine.positions(),
                    Some(&off),
                    Some(w.engine.energy()),
                    &cfg,
                )
                .is_ok()
        });
        pass.solve_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let s = w.oracle.stats();
        for (acc, ns) in
            pass.scratch
                .iter_mut()
                .zip([s.partition_ns, s.halo_build_ns, s.solve_ns, s.merge_ns])
        {
            acc.push(ns as f64 / 1e6);
        }
        let same = tr.time(0, CHECK, "scratch_identity", || {
            solved && same_solution(&w.engine, &w.oracle)
        });
        out.check(same);
    }
    pass
}

/// The engine's masks equal a from-scratch solve's.
pub fn same_solution(engine: &ChurnEngine, oracle: &ShardedCds) -> bool {
    engine.gateways() == oracle.gateways()
        && engine.marked() == oracle.marked()
        && engine.after_rule1() == oracle.after_rule1()
}

/// One wave: every flow injects `PACKETS` packets and the engine pumps
/// them to completion. Returns (hops, delivered, misroutes) of the wave.
fn wave(w: &mut World) -> (u64, u64, u64) {
    let before = w.dp.stats();
    for &f in &w.flows {
        w.dp.inject(f, PACKETS);
    }
    w.dp.pump(w.net.graph(), w.net.alive());
    w.dp.reset_packets();
    let after = w.dp.stats();
    (
        after.forwarded_hops - before.forwarded_hops,
        after.delivered - before.delivered,
        after.misroutes - before.misroutes,
    )
}

/// An interior hop of some flow's current route that may die.
fn pick_victim(w: &mut World, drill: usize) -> Option<u32> {
    let mut probe = Vec::new();
    let k = w.endpoints.len();
    (0..k).find_map(|i| {
        let (s, d) = w.endpoints[(drill * 7 + i) % k];
        w.dp.routes_mut()
            .assemble(w.net.graph(), s, d, &mut probe)
            .ok()?;
        probe
            .get(1..probe.len().saturating_sub(1))?
            .iter()
            .copied()
            .find(|&v| !w.protected[v as usize] && w.net.alive()[v as usize])
    })
}

/// Warm waves with a kill-and-reroute drill after every `WAVES_PER_KILL`
/// of them, until `budget` has passed and `min_drills` drills ran. With
/// tracing on, every wave and every odd drill is traced.
pub fn forward_pass(
    w: &mut World,
    budget: Duration,
    min_drills: usize,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> ForwardPass {
    let tracing = tr.on();
    let start = Instant::now();
    let mut pass = ForwardPass::default();
    let per_wave = (w.flows.len() * PACKETS) as u64;
    // Warm-up wave: resolves every flow's route on the current tables.
    let (_, delivered, misroutes) = wave(w);
    out.check(delivered == per_wave && misroutes == 0);
    while pass.reroute_ms.len() < min_drills || start.elapsed() < budget {
        tr.set_on(tracing);
        for _ in 0..WAVES_PER_KILL {
            let t = Instant::now();
            let (hops, delivered, misroutes) = tr.time(0, "dataplane", "wave", || wave(w));
            let dt = t.elapsed();
            pass.wave_ms.push(dt.as_secs_f64() * 1e3);
            pass.wave_hops_per_s.push(hops as f64 / dt.as_secs_f64());
            pass.hops += hops;
            pass.delivered += delivered;
            out.check(delivered == per_wave && misroutes == 0);
        }

        let drill = pass.reroute_ms.len();
        let Some(victim) = pick_victim(w, drill) else {
            out.check(false);
            break;
        };
        tr.set_on(tracing && drill % 2 == 1);
        let before = w.dp.stats();
        let t = Instant::now();
        let root = tr.open(0, "dataplane", "reroute");
        let killed = tr.time(root, "dataplane", "kill_pump", || {
            let killed = w.net.kill(victim).is_ok();
            for &f in &w.flows {
                w.dp.inject(f, PACKETS);
            }
            w.dp.pump(w.net.graph(), w.net.alive());
            killed
        });
        let stale = w.dp.stats();
        let tn = Instant::now();
        let cs = tr.time(root, "dataplane", "net_refresh", || w.net.refresh());
        let refresh = tn.elapsed();
        tr.time(root, "dataplane", "install", || {
            w.dp.install_tables(w.net.gateway(), w.net.alive())
        });
        tr.time(root, "dataplane", "redeliver", || {
            w.dp.requeue_nacked();
            w.dp.pump(w.net.graph(), w.net.alive());
        });
        tr.close(root);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        pass.reroute_ms.push(ms);
        if tracing && !tr.on() {
            pass.plain_reroute_ms.push(ms);
        }

        let after = w.dp.stats();
        pass.nacked.push((stale.nacked - before.nacked) as f64);
        pass.trees.push(w.dp.routes().trees_built() as f64);
        let engine_ns = cs.halo_build_ns + cs.solve_ns + cs.scatter_ns;
        pass.adjacency_ms
            .push((refresh.as_nanos() as f64 - engine_ns as f64) / 1e6);
        out.check(
            killed
                && stale.nacked > before.nacked
                && w.dp.nacked_pending() == 0
                && after.delivered - before.delivered == per_wave
                && after.misroutes == before.misroutes,
        );
        w.dp.reset_packets();
        // Untimed re-warm: rebuilds the routes the new tables invalidated.
        let (_, delivered, misroutes) = wave(w);
        out.check(delivered == per_wave && misroutes == 0);
    }
    tr.set_on(tracing);
    pass
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setup = Samples::default();
    let (mut shard_open, mut dp_open) = (Samples::default(), Samples::default());
    let mut world = None;
    for _ in 0..SETUP_REPS {
        drop(world.take());
        let t = Instant::now();
        let w = build(opts.seed, N, FLOWS)?;
        setup.push(t.elapsed().as_secs_f64());
        shard_open.push(w.shard_open_ms);
        dp_open.push(w.dp_open_ms);
        world = Some(w);
    }
    let mut w = world.expect("at least one set-up");
    out.set("setup_s", setup.p50());
    out.set("shard.open_ms", shard_open.p50());
    out.set("dataplane.open_ms", dp_open.p50());

    if !opts.trace {
        let mut off = Tracer::new(false);
        let c = churn_pass(
            &mut w,
            opts.budget(0.5),
            MIN_STEPS,
            false,
            &mut off,
            &mut out,
        );
        let f = forward_pass(&mut w, opts.budget(0.5), MIN_DRILLS, &mut off, &mut out);
        let t = tail(&c.step_ms, MIN_STEPS);
        out.set("ops_per_s", c.events_per_s());
        out.set("update_ms.p50", c.step_ms.p50());
        out.set("update_ms.tail", t.value);
        out.set("scratch_ms.p50", c.solve_ms.p50());
        out.set("response_ms.p50", f.reroute_ms.p50());
        out.note("churn.events_per_s", c.events_per_s(), "1/s");
        out.note("churn.step_ms.p50", c.step_ms.p50(), "ms");
        out.note_tail("churn.step_ms.tail", &t, 1.0, "ms");
        out.note("shard.solve_ms", c.solve_ms.p50(), "ms");
        out.note("dp.hops_per_s", f.hops_per_s(), "1/s");
        out.note("dp.reroute_ms.p50", f.reroute_ms.p50(), "ms");
        out.note("setup_s", setup.p50(), "s");
        return Ok(out);
    }

    // Traced run: churn steps and reroute drills alternate traced and
    // untraced (the steps' difference is the tracing overhead); solves and
    // waves are traced.
    let mut tr = Tracer::new(true);
    let c = churn_pass(&mut w, opts.budget(0.5), 0, true, &mut tr, &mut out);
    let f = forward_pass(&mut w, opts.budget(0.5), 2, &mut tr, &mut out);

    out.set(
        "shard.apply_us.p50",
        tr.durations("shard", "apply", 1e3).p50(),
    );
    out.set(
        "shard.refresh_ms.p50",
        tr.durations("shard", "refresh", 1e6).p50(),
    );
    let steps = c.stats.len().max(1) as f64;
    let sum = |f: fn(&ChurnStats) -> u64| c.stats.iter().map(f).sum::<u64>() as f64;
    out.set("shard.halo_ms", sum(|s| s.halo_build_ns) / steps / 1e6);
    out.set("shard.tile_solve_ms", sum(|s| s.solve_ns) / steps / 1e6);
    out.set("shard.scatter_ms", sum(|s| s.scatter_ns) / steps / 1e6);
    let resolved = sum(|s| s.resolved_tiles as u64);
    out.set("shard.resolved_tiles_per_step", resolved / steps);
    out.set(
        "shard.resolved_frac",
        resolved / sum(|s| s.total_tiles as u64).max(1.0),
    );
    out.set(
        "shard.flips_per_event",
        sum(|s| s.gateway_flips) / sum(|s| s.events).max(1.0),
    );
    let scratch = [
        "shard.scratch_partition_ms",
        "shard.scratch_halo_ms",
        "shard.scratch_solve_ms",
        "shard.scratch_merge_ms",
    ];
    for (name, s) in scratch.into_iter().zip(&c.scratch) {
        out.set(name, s.p50());
    }
    out.set("dataplane.wave_ms.p50", f.wave_ms.p50());
    out.set("dataplane.hops_per_s", f.hops_per_s());
    out.set(
        "dataplane.hops_per_packet",
        f.hops as f64 / f.delivered.max(1) as f64,
    );
    let phases = [
        ("dataplane.kill_pump_ms", "kill_pump"),
        ("dataplane.net_refresh_ms", "net_refresh"),
        ("dataplane.install_ms", "install"),
        ("dataplane.redeliver_ms", "redeliver"),
    ];
    for (metric, span) in phases {
        out.set(metric, tr.durations("dataplane", span, 1e6).p50());
    }
    out.set("dataplane.adjacency_ms", f.adjacency_ms.p50());
    out.set("dataplane.nacked_per_kill", f.nacked.mean());
    out.set("dataplane.trees_built_per_reroute", f.trees.mean());
    out.set_self_pct(&tr);

    let overhead = 100.0 * (c.traced_step_ms.mean() / c.step_ms.mean() - 1.0);
    out.set("trace.overhead_pct", overhead);
    out.note("trace.overhead_pct (churn step)", overhead, "%");
    // The traced drills' phases against the untraced drills' reroute, as
    // means per drill: work outside the phases, or tracer cost, is the
    // residual.
    let parts: u64 = phases
        .iter()
        .map(|(_, s)| tr.total_ns("dataplane", s))
        .sum();
    let traced_drills = tr.durations("dataplane", "reroute", 1.0).len().max(1);
    out.set_addup(
        "kill_pump + net_refresh + install + redeliver (traced drills)",
        parts as f64 / 1e6 / traced_drills as f64,
        "dp.reroute_ms (untraced drills)",
        f.plain_reroute_ms.mean(),
        "ms",
    );
    out.set_tail_floor(MIN_STEPS);
    crate::trace::write_spans(&tr, "churn-reroute");
    Ok(out)
}
