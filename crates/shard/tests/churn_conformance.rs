//! Churn conformance: the testkit's differential churn harness replays
//! the seeded trace corpus under every shardable configuration, asserting
//! bit-identity of the [`ChurnEngine`]'s masks against **two** independent
//! from-scratch oracles after every single event (with greedy shrinking to
//! a minimal failing trace on divergence — see `pacds_testkit::churn`).
//! The unshardable matrix half is mirrored: `ChurnEngine::open` rejects
//! it with the same typed errors as the batch engine.
//!
//! Corpus depth scales with `PROPTEST_CASES`: each 256 adds another
//! seeded corpus round (CI sets 512). The proptest stub itself ignores
//! the variable.

use pacds_core::CdsConfig;
use pacds_geom::Rect;
use pacds_shard::{check_shardable, ChurnEngine, ChurnError, ShardSpec};
use pacds_testkit::churn::{
    corpus_traces, derived_grid_traces, first_divergence, shardable_matrix, ChurnTrace, TraceArena,
};
use pacds_testkit::harness::full_config_matrix;
use pacds_testkit::ChurnReport;

fn corpus_rounds() -> u64 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .map_or(1, |cases| (cases / 256).clamp(1, 8))
}

/// The headline sweep: corpus × shardable matrix, every event compared
/// bit-for-bit against the from-scratch sharded recompute and the
/// whole-graph workspace.
#[test]
fn churn_corpus_is_bit_identical_across_the_shardable_matrix() {
    let mut report = ChurnReport::new();
    for round in 0..corpus_rounds() {
        for trace in corpus_traces(0xC0DE_CAFE ^ (round * 0x9E37)) {
            for cfg in shardable_matrix() {
                report.check_trace(&trace, &cfg);
            }
        }
    }
    assert!(
        report.replays >= 5 * 7,
        "sweep coverage shrank: {} replays",
        report.replays
    );
    assert!(report.events >= 5 * 7 * 20, "event coverage shrank");
    report.finish();
}

/// Every trace family replayed with `shards: 0` on an arena where the
/// engine derives a 16-tile grid, every event compared against both
/// from-scratch oracles: the derived grid and the coarse seed at open
/// are as invisible as a fixed grid.
#[test]
fn derived_grid_churn_replays_every_trace_family() {
    let mut report = ChurnReport::new();
    for trace in derived_grid_traces(0xD1CE) {
        assert_eq!(trace.shards, 0, "{}", trace.name);
        let eng = ChurnEngine::open(
            ShardSpec::new(trace.shards),
            trace.bounds,
            trace.radius,
            &trace.points,
            &trace.energy,
            &CdsConfig::policy(pacds_core::Policy::Id),
        )
        .unwrap();
        assert!(eng.tiles() >= 16, "{}: {} tiles", trace.name, eng.tiles());
        for cfg in shardable_matrix() {
            report.check_trace(&trace, &cfg);
        }
    }
    assert_eq!(
        report.replays,
        4 * 7,
        "every family under every shardable config"
    );
    report.finish();
}

/// Different shard counts (including the degenerate single tile) replay
/// the same trace to the same states — the dirty-set machinery must be
/// invisible at every grid granularity.
#[test]
fn shard_count_is_invisible_to_churn_replay() {
    let base = pacds_testkit::churn::mixed_trace(TraceArena::paper(), 0x51AB, 50, 30);
    let cfg = CdsConfig::policy(pacds_core::Policy::EnergyDegree);
    for shards in [1usize, 4, 16] {
        let mut t = base.clone();
        t.shards = shards;
        assert_eq!(
            first_divergence(&t, &cfg),
            None,
            "divergence at shards={shards}"
        );
    }
}

/// The unshardable 33 configurations are rejected at `open` with exactly
/// the batch engine's typed errors, before any work happens.
#[test]
fn unshardable_configs_are_mirrored_at_open() {
    let trace = pacds_testkit::churn::mobility_trace(TraceArena::paper(), 3, 20, 0);
    let mut rejected = 0usize;
    for cfg in full_config_matrix() {
        match check_shardable(&cfg) {
            Ok(()) => {
                ChurnEngine::open(
                    ShardSpec::new(trace.shards),
                    trace.bounds,
                    trace.radius,
                    &trace.points,
                    &trace.energy,
                    &cfg,
                )
                .expect("shardable config must open");
            }
            Err(expected) => {
                rejected += 1;
                let got = ChurnEngine::open(
                    ShardSpec::new(trace.shards),
                    trace.bounds,
                    trace.radius,
                    &trace.points,
                    &trace.energy,
                    &cfg,
                )
                .err();
                assert_eq!(got, Some(ChurnError::Shard(expected)), "cfg={cfg:?}");
            }
        }
    }
    assert_eq!(rejected, 33, "the matrix splits 7 shardable / 33 not");
}

/// An emitted trace file replays to the same verdicts as the in-memory
/// trace — the JSON format loses nothing the replay depends on.
#[test]
fn emitted_traces_replay_identically() {
    let trace = pacds_testkit::churn::death_burst_trace(TraceArena::paper(), 0xDEAD, 40, 2, 4);
    let dir = std::env::temp_dir().join("pacds-churn-roundtrip");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("roundtrip.json");
    std::fs::write(&path, trace.to_json()).unwrap();
    let loaded = ChurnTrace::load(&path).unwrap();
    assert_eq!(trace, loaded);
    let cfg = CdsConfig::policy(pacds_core::Policy::Energy);
    assert_eq!(first_divergence(&loaded, &cfg), None);
    std::fs::remove_file(&path).ok();
}

/// Rejected events inside a trace are deterministic no-ops: a trace that
/// kills a node twice and moves a node out of bounds replays cleanly,
/// with the bad events changing nothing.
#[test]
fn rejected_events_are_deterministic_no_ops_in_replay() {
    use pacds_testkit::TraceEvent;
    let mut trace = pacds_testkit::churn::mobility_trace(TraceArena::paper(), 77, 30, 5);
    trace.events.push(TraceEvent::Kill { node: 2 });
    trace.events.push(TraceEvent::Kill { node: 2 }); // double kill
    trace.events.push(TraceEvent::Move {
        node: 1,
        x: Rect::paper_arena().x1 + 500.0,
        y: 0.0,
    }); // out of domain
    trace.events.push(TraceEvent::Drain {
        node: 2,
        remaining: 1,
    }); // drain a dead node
    trace.events.push(TraceEvent::Move {
        node: 999,
        x: 1.0,
        y: 1.0,
    }); // unknown id
    for cfg in shardable_matrix() {
        assert_eq!(first_divergence(&trace, &cfg), None, "cfg={cfg:?}");
    }
}
