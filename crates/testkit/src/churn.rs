//! Churn-trace oracle: replayable JSON event traces, seeded trace
//! generators, and a per-event differential harness pinning
//! [`ChurnEngine`] bit-identical to from-scratch recomputes.
//!
//! The harness replays a [`ChurnTrace`] one event at a time and, after
//! *every* accepted event, compares the engine's three masks (marked,
//! after-Rule-1, gateways) against **two** independent from-scratch
//! oracles:
//!
//! 1. a fresh [`ShardedCds`] run in masked mode over the live positions
//!    (the bit-identity target the churn engine claims), and
//! 2. the whole-graph [`CdsWorkspace`] on an O(n²) pairwise unit-disk
//!    graph with dead hosts isolated (independent of all sharding code).
//!
//! A divergence is shrunk greedily to a minimal failing trace
//! ([`shrink_trace`]) and emitted as a replayable JSON file next to the
//! casefile corpus ([`emit_trace`], same `PACDS_TESTKIT_CASE_DIR`
//! convention as [`crate::casefile::case_dir`]).
//!
//! Replay semantics: events the engine rejects (unknown node, double
//! kill, out-of-bounds move) are deterministic no-ops, so removing an
//! `Add` during shrinking never makes a trace ill-formed — later events
//! that referenced the added node simply become rejected no-ops.

use crate::casefile::case_dir;
use crate::harness::full_config_matrix;
use pacds_core::{CdsConfig, CdsWorkspace};
use pacds_geom::{placement, Point2, Rect};
use pacds_graph::{gen, Graph};
use pacds_shard::{check_shardable, ChurnEngine, ChurnEvent, ShardSpec, ShardedCds};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::path::PathBuf;

/// Serialisable mirror of [`ChurnEvent`] (flat coordinates so the JSON
/// stays trivially diffable and stable across geometry-type changes).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// Mirrors [`ChurnEvent::AddNode`].
    Add {
        /// Spawn x coordinate.
        x: f64,
        /// Spawn y coordinate.
        y: f64,
        /// Initial residual energy.
        energy: u64,
    },
    /// Mirrors [`ChurnEvent::MoveNode`].
    Move {
        /// The moving host.
        node: u32,
        /// Destination x coordinate.
        x: f64,
        /// Destination y coordinate.
        y: f64,
    },
    /// Mirrors [`ChurnEvent::KillNode`].
    Kill {
        /// The dying host.
        node: u32,
    },
    /// Mirrors [`ChurnEvent::DrainBattery`] (absolute level, so a trace
    /// replays without history).
    Drain {
        /// The draining host.
        node: u32,
        /// New absolute residual level.
        remaining: u64,
    },
}

impl TraceEvent {
    /// Convert to the engine's event type.
    pub fn to_event(self) -> ChurnEvent {
        match self {
            Self::Add { x, y, energy } => ChurnEvent::AddNode {
                pos: Point2 { x, y },
                energy,
            },
            Self::Move { node, x, y } => ChurnEvent::MoveNode {
                node,
                to: Point2 { x, y },
            },
            Self::Kill { node } => ChurnEvent::KillNode { node },
            Self::Drain { node, remaining } => ChurnEvent::DrainBattery { node, remaining },
        }
    }

    /// Convert from the engine's event type.
    pub fn from_event(ev: &ChurnEvent) -> Self {
        match *ev {
            ChurnEvent::AddNode { pos, energy } => Self::Add {
                x: pos.x,
                y: pos.y,
                energy,
            },
            ChurnEvent::MoveNode { node, to } => Self::Move {
                node,
                x: to.x,
                y: to.y,
            },
            ChurnEvent::KillNode { node } => Self::Kill { node },
            ChurnEvent::DrainBattery { node, remaining } => Self::Drain { node, remaining },
        }
    }
}

/// A replayable churn scenario: an initial instance plus an ordered
/// event stream. Everything needed to reproduce a failure is in the
/// file — no RNG state, no config (the config sweeps outside the trace).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChurnTrace {
    /// Human-readable scenario name (becomes part of the emitted slug).
    pub name: String,
    /// Seed the generator used (provenance only; replay never re-rolls).
    pub seed: u64,
    /// The engine's open-time bounds.
    pub bounds: Rect,
    /// Unit-disk transmission radius.
    pub radius: f64,
    /// Shard count handed to [`ShardSpec::new`] (`0`: the engine's
    /// derived grid).
    pub shards: usize,
    /// Initial host positions.
    pub points: Vec<Point2>,
    /// Initial residual energies (same length as `points`).
    pub energy: Vec<u64>,
    /// The mutation stream, applied one event per step.
    pub events: Vec<TraceEvent>,
}

impl ChurnTrace {
    /// Serialise to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("serialize churn trace")
    }

    /// Parse a trace previously written by [`ChurnTrace::to_json`] /
    /// [`emit_trace`].
    pub fn from_json(s: &str) -> Result<Self, String> {
        serde_json::from_str(s).map_err(|e| format!("parse churn trace: {e:?}"))
    }

    /// Load a trace file from disk.
    pub fn load(path: &std::path::Path) -> Result<Self, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        Self::from_json(&text)
    }
}

/// The shardable half of the 40-configuration matrix — exactly the
/// configurations [`ChurnEngine::open`] accepts (7 of 40; the other 33
/// are pinned to typed rejection by the conformance tests).
pub fn shardable_matrix() -> Vec<CdsConfig> {
    full_config_matrix()
        .into_iter()
        .filter(|cfg| check_shardable(cfg).is_ok())
        .collect()
}

// ---------------------------------------------------------------------
// Seeded generators
// ---------------------------------------------------------------------

/// Where a generated trace lives: its bounds, and the shard count its
/// replay opens the engine with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceArena {
    /// The engine's open-time bounds (hosts are placed inside them).
    pub bounds: Rect,
    /// Shard count handed to [`ShardSpec::new`].
    pub shards: usize,
}

impl TraceArena {
    /// The paper's 100×100 arena on a fixed 3×3 grid (the standard
    /// corpus).
    pub fn paper() -> Self {
        Self {
            bounds: Rect::paper_arena(),
            shards: 9,
        }
    }

    /// A `side`-wide square on the engine's derived grid (`shards: 0`).
    pub fn derived(side: f64) -> Self {
        Self {
            bounds: Rect::square(side),
            shards: 0,
        }
    }
}

fn base_instance(
    rng: &mut StdRng,
    arena: TraceArena,
    n: usize,
) -> (Rect, f64, Vec<Point2>, Vec<u64>) {
    let bounds = arena.bounds;
    let radius = 25.0;
    let points = placement::uniform_points(rng, bounds, n);
    let energy: Vec<u64> = (0..n).map(|_| rng.random_range(5..100)).collect();
    (bounds, radius, points, energy)
}

fn clamp(bounds: Rect, x: f64, y: f64) -> (f64, f64) {
    (x.clamp(bounds.x0, bounds.x1), y.clamp(bounds.y0, bounds.y1))
}

/// Mobility walk: every step one live host takes a bounded random step
/// (the paper's update-interval model — hosts drift, the gateway set is
/// refreshed).
pub fn mobility_trace(arena: TraceArena, seed: u64, n: usize, steps: usize) -> ChurnTrace {
    let mut rng = StdRng::seed_from_u64(seed);
    let (bounds, radius, points, energy) = base_instance(&mut rng, arena, n);
    let mut pos = points.clone();
    let mut events = Vec::with_capacity(steps);
    for _ in 0..steps {
        let node = rng.random_range(0..n as u32);
        let p = pos[node as usize];
        let (x, y) = clamp(
            bounds,
            p.x + rng.random_range(-12.0..12.0),
            p.y + rng.random_range(-12.0..12.0),
        );
        pos[node as usize] = Point2 { x, y };
        events.push(TraceEvent::Move { node, x, y });
    }
    ChurnTrace {
        name: format!("mobility-s{seed}"),
        seed,
        bounds,
        radius,
        shards: arena.shards,
        points,
        energy,
        events,
    }
}

/// Death bursts: clusters of permanent switch-offs separated by single
/// moves (exercises mass invalidation and the dead-host model).
pub fn death_burst_trace(
    arena: TraceArena,
    seed: u64,
    n: usize,
    bursts: usize,
    burst_size: usize,
) -> ChurnTrace {
    let mut rng = StdRng::seed_from_u64(seed);
    let (bounds, radius, points, energy) = base_instance(&mut rng, arena, n);
    let mut alive: Vec<u32> = (0..n as u32).collect();
    let mut events = Vec::new();
    for _ in 0..bursts {
        for _ in 0..burst_size.min(alive.len().saturating_sub(2)) {
            let k = rng.random_range(0..alive.len());
            events.push(TraceEvent::Kill {
                node: alive.swap_remove(k),
            });
        }
        if let Some(&node) = alive.first() {
            let (x, y) = clamp(
                bounds,
                rng.random_range(bounds.x0..bounds.x1),
                rng.random_range(bounds.y0..bounds.y1),
            );
            events.push(TraceEvent::Move { node, x, y });
        }
    }
    ChurnTrace {
        name: format!("death-burst-s{seed}"),
        seed,
        bounds,
        radius,
        shards: arena.shards,
        points,
        energy,
        events,
    }
}

/// Battery drain schedule: monotonically decreasing absolute levels on
/// random hosts (exercises the energy-only dirty path, which reaches one
/// hop instead of two and is a no-op under energy-blind policies).
pub fn drain_trace(arena: TraceArena, seed: u64, n: usize, steps: usize) -> ChurnTrace {
    let mut rng = StdRng::seed_from_u64(seed);
    let (bounds, radius, points, energy) = base_instance(&mut rng, arena, n);
    let mut level = energy.clone();
    let mut events = Vec::with_capacity(steps);
    for _ in 0..steps {
        let node = rng.random_range(0..n as u32);
        let cur = level[node as usize];
        let remaining = cur.saturating_sub(rng.random_range(1..20)).max(1);
        level[node as usize] = remaining;
        events.push(TraceEvent::Drain { node, remaining });
    }
    ChurnTrace {
        name: format!("drain-s{seed}"),
        seed,
        bounds,
        radius,
        shards: arena.shards,
        points,
        energy,
        events,
    }
}

/// Mixed stream interleaving all four mutation kinds, including spawns
/// (new ids mid-trace) and kills of freshly spawned hosts.
pub fn mixed_trace(arena: TraceArena, seed: u64, n: usize, steps: usize) -> ChurnTrace {
    let mut rng = StdRng::seed_from_u64(seed);
    let (bounds, radius, points, energy) = base_instance(&mut rng, arena, n);
    let mut pos = points.clone();
    let mut alive: Vec<bool> = vec![true; n];
    let mut events = Vec::with_capacity(steps);
    for _ in 0..steps {
        let live: Vec<u32> = (0..pos.len() as u32)
            .filter(|&v| alive[v as usize])
            .collect();
        match rng.random_range(0..10u32) {
            0 | 1 => {
                let x = rng.random_range(bounds.x0..bounds.x1);
                let y = rng.random_range(bounds.y0..bounds.y1);
                let e = rng.random_range(5..100);
                pos.push(Point2 { x, y });
                alive.push(true);
                events.push(TraceEvent::Add { x, y, energy: e });
            }
            2 if live.len() > 3 => {
                let node = live[rng.random_range(0..live.len())];
                alive[node as usize] = false;
                events.push(TraceEvent::Kill { node });
            }
            3 | 4 if !live.is_empty() => {
                let node = live[rng.random_range(0..live.len())];
                events.push(TraceEvent::Drain {
                    node,
                    remaining: rng.random_range(1..100),
                });
            }
            _ if !live.is_empty() => {
                let node = live[rng.random_range(0..live.len())];
                let p = pos[node as usize];
                let (x, y) = clamp(
                    bounds,
                    p.x + rng.random_range(-15.0..15.0),
                    p.y + rng.random_range(-15.0..15.0),
                );
                pos[node as usize] = Point2 { x, y };
                events.push(TraceEvent::Move { node, x, y });
            }
            _ => {}
        }
    }
    ChurnTrace {
        name: format!("mixed-s{seed}"),
        seed,
        bounds,
        radius,
        shards: arena.shards,
        points,
        energy,
        events,
    }
}

/// The standard churn corpus: one trace per generator family at a couple
/// of sizes, all seeded from `seed`.
pub fn corpus_traces(seed: u64) -> Vec<ChurnTrace> {
    let a = TraceArena::paper();
    vec![
        mobility_trace(a, seed, 60, 30),
        mobility_trace(a, seed ^ 0x9e37_79b9, 120, 25),
        death_burst_trace(a, seed.wrapping_add(1), 80, 3, 6),
        drain_trace(a, seed.wrapping_add(2), 70, 30),
        mixed_trace(a, seed.wrapping_add(3), 60, 40),
    ]
}

/// One trace per generator family on the engine's derived grid: a
/// 400-wide arena with 1200 hosts and `shards: 0`, where the grid at
/// radius 25 is 4×4, so events cross tile borders and dirty sets span
/// several tiles.
pub fn derived_grid_traces(seed: u64) -> Vec<ChurnTrace> {
    let (a, n) = (TraceArena::derived(400.0), 1200);
    vec![
        mobility_trace(a, seed, n, 16),
        death_burst_trace(a, seed.wrapping_add(1), n, 2, 6),
        drain_trace(a, seed.wrapping_add(2), n, 16),
        mixed_trace(a, seed.wrapping_add(3), n, 20),
    ]
}

// ---------------------------------------------------------------------
// Differential replay
// ---------------------------------------------------------------------

/// Replay `trace` under `cfg`, checking the engine's masks against both
/// from-scratch oracles after the initial solve and after every accepted
/// event. Returns the number of events applied at the first divergence
/// (`Some(0)` means the initial full solve already diverged), or `None`
/// if the whole trace is bit-identical.
///
/// # Panics
/// Panics if `cfg` is not shardable (sweep callers filter with
/// [`shardable_matrix`]; the rejection half has its own tests).
pub fn first_divergence(trace: &ChurnTrace, cfg: &CdsConfig) -> Option<usize> {
    let mut eng = ChurnEngine::open(
        ShardSpec::new(trace.shards),
        trace.bounds,
        trace.radius,
        &trace.points,
        &trace.energy,
        cfg,
    )
    .expect("first_divergence expects a shardable config");
    if !matches_scratch(&eng, trace, cfg) {
        return Some(0);
    }
    for (i, ev) in trace.events.iter().enumerate() {
        // Rejected events are deterministic no-ops; the engine state is
        // untouched, so the oracles must still match (checked anyway —
        // a rejection that *did* mutate state is exactly the kind of bug
        // this harness exists to catch).
        let _ = eng.apply(&ev.to_event());
        eng.refresh();
        if !matches_scratch(&eng, trace, cfg) {
            return Some(i + 1);
        }
    }
    None
}

/// Compare `eng`'s three masks against a fresh masked [`ShardedCds`] and
/// the whole-graph [`CdsWorkspace`] over the current live topology.
fn matches_scratch(eng: &ChurnEngine, trace: &ChurnTrace, cfg: &CdsConfig) -> bool {
    let off = eng.off_mask();

    // Oracle 1: from-scratch sharded recompute in masked mode.
    let mut scratch = ShardedCds::new(ShardSpec::new(trace.shards)).expect("scratch engine");
    scratch
        .compute_unit_disk_masked(
            trace.bounds,
            trace.radius,
            eng.positions(),
            Some(&off),
            Some(eng.energy()),
            cfg,
        )
        .expect("scratch masked solve");
    if eng.marked() != scratch.marked()
        || eng.after_rule1() != scratch.after_rule1()
        || eng.gateways() != scratch.gateways()
    {
        return false;
    }

    // Oracle 2: whole-graph workspace, dead hosts isolated. Independent
    // of every sharding/halo/dirty-set code path.
    let mut whole = Graph::default();
    whole.rebuild_from_masked(
        &gen::unit_disk(trace.bounds, trace.radius, eng.positions()),
        &off,
    );
    let mut ws = CdsWorkspace::new();
    let expected = ws.compute(&whole, Some(eng.energy()), cfg);
    eng.gateways() == expected
        && eng.marked() == ws.marked()
        && eng.after_rule1() == ws.after_rule1()
}

// ---------------------------------------------------------------------
// Shrinking + emission
// ---------------------------------------------------------------------

/// Greedily shrink a failing trace to a locally-minimal event stream:
/// repeatedly delete single events while `still_fails` holds, until no
/// single deletion keeps the failure. (Initial points are kept — events
/// reference ids by index, and rejected references are harmless no-ops,
/// so event deletion alone is always well-formed.)
pub fn shrink_trace<F>(mut trace: ChurnTrace, mut still_fails: F) -> ChurnTrace
where
    F: FnMut(&ChurnTrace) -> bool,
{
    // Fast pass: drop the tail beyond the first failure point by
    // bisecting on prefix length.
    let mut lo = 0usize;
    let mut hi = trace.events.len();
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let mut cand = trace.clone();
        cand.events.truncate(mid);
        if still_fails(&cand) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    trace.events.truncate(lo.max(hi));

    // Greedy single-event deletion to a local fixpoint.
    loop {
        let mut changed = false;
        let mut i = 0;
        while i < trace.events.len() {
            let mut cand = trace.clone();
            cand.events.remove(i);
            if still_fails(&cand) {
                trace = cand;
                changed = true;
            } else {
                i += 1;
            }
        }
        if !changed {
            return trace;
        }
    }
}

/// Write a trace to the failure-case directory (same
/// `PACDS_TESTKIT_CASE_DIR` convention as [`crate::emit_case`]) and
/// return the path. `label` names the checking context (config slug).
pub fn emit_trace(trace: &ChurnTrace, label: &str) -> PathBuf {
    let dir = case_dir();
    std::fs::create_dir_all(&dir).expect("create case dir");
    let slug: String = format!("{}-{}", trace.name, label)
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect();
    let path = dir.join(format!(
        "churn-{slug}-n{}-e{}.json",
        trace.points.len(),
        trace.events.len()
    ));
    std::fs::write(&path, trace.to_json()).expect("write churn trace");
    path
}

/// Accumulates churn-conformance results across a corpus × config sweep,
/// shrinking and emitting every failing trace; [`ChurnReport::finish`]
/// panics with the artifact paths if anything diverged.
#[derive(Debug, Default)]
pub struct ChurnReport {
    /// (trace, config) pairs replayed.
    pub replays: usize,
    /// Total events replayed (each followed by a two-oracle comparison).
    pub events: usize,
    /// Shrunk failing-trace files, one per divergent (trace, config).
    pub failures: Vec<PathBuf>,
}

impl ChurnReport {
    /// Fresh empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replay `trace` under `cfg`; on divergence, shrink to a minimal
    /// failing trace and emit it as a replayable JSON artifact.
    pub fn check_trace(&mut self, trace: &ChurnTrace, cfg: &CdsConfig) {
        self.replays += 1;
        self.events += trace.events.len();
        if first_divergence(trace, cfg).is_none() {
            return;
        }
        let shrunk = shrink_trace(trace.clone(), |t| first_divergence(t, cfg).is_some());
        let label = format!(
            "{:?}-{:?}-{:?}-{:?}",
            cfg.policy, cfg.schedule, cfg.rule2, cfg.application
        );
        let path = emit_trace(&shrunk, &label);
        eprintln!(
            "CHURN DIVERGENCE {} under {label}: shrunk to {} event(s), trace at {}",
            trace.name,
            shrunk.events.len(),
            path.display()
        );
        self.failures.push(path);
    }

    /// Panic if any replay diverged, listing the emitted artifacts.
    pub fn finish(self) {
        assert!(
            self.failures.is_empty(),
            "{} of {} churn replays diverged; shrunk traces: {:?}",
            self.failures.len(),
            self.replays,
            self.failures
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_round_trip_through_json() {
        let t = mixed_trace(TraceArena::paper(), 11, 20, 15);
        let back = ChurnTrace::from_json(&t.to_json()).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn generators_are_deterministic() {
        let a = TraceArena::paper();
        assert_eq!(mobility_trace(a, 5, 30, 10), mobility_trace(a, 5, 30, 10));
        assert_ne!(mobility_trace(a, 5, 30, 10), mobility_trace(a, 6, 30, 10));
    }

    #[test]
    fn shardable_matrix_has_seven_configs() {
        let m = shardable_matrix();
        assert_eq!(m.len(), 7);
        for cfg in &m {
            assert!(check_shardable(cfg).is_ok());
        }
    }

    #[test]
    fn shrinker_reaches_a_minimal_trace() {
        // Synthetic predicate: "fails" iff the trace still contains a
        // Kill of node 3 — the shrinker must strip everything else.
        let mut t = mobility_trace(TraceArena::paper(), 9, 20, 12);
        t.events.insert(5, TraceEvent::Kill { node: 3 });
        let has_kill = |tr: &ChurnTrace| {
            tr.events
                .iter()
                .any(|e| matches!(e, TraceEvent::Kill { node: 3 }))
        };
        assert!(has_kill(&t));
        let shrunk = shrink_trace(t, has_kill);
        assert_eq!(shrunk.events, vec![TraceEvent::Kill { node: 3 }]);
    }

    #[test]
    fn a_clean_trace_replays_without_divergence() {
        let t = mobility_trace(TraceArena::paper(), 21, 40, 8);
        let cfg = CdsConfig::policy(pacds_core::Policy::Degree);
        assert_eq!(first_divergence(&t, &cfg), None);
    }
}
