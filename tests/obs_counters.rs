//! Cross-crate checks of the `pacds-obs` instrumentation layer.
//!
//! Built twice in CI: with `--features obs` the reference pipeline must
//! tick the counters, record phase timings, and round-trip its snapshot
//! through the JSONL and Prometheus exporters; without the feature the
//! identical API must be a no-op that records nothing.

use pacds::core::{CdsConfig, CdsWorkspace, Policy};
use pacds::graph::gen;
use pacds::obs::{self, Counter, Snapshot};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// One reference CDS computation through the retained workspace.
fn reference_run() {
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let g = gen::connected_gnp(&mut rng, 60, 0.1, 8);
    let energy: Vec<u64> = (0..60).map(|i| (i * 13) % 100).collect();
    let mut ws = CdsWorkspace::with_capacity(60);
    let gw = ws.compute(&g, Some(&energy), &CdsConfig::policy(Policy::EnergyDegree));
    assert!(gw.iter().any(|&b| b));
}

#[cfg(feature = "obs")]
#[test]
fn instrumented_reference_run_ticks_counters_and_exports() {
    let before = Snapshot::capture();
    reference_run();
    let snap = Snapshot::capture();
    assert!(obs::enabled());
    assert!(snap.enabled);

    // Every stage of the pipeline left a trace.
    let delta = |c: Counter| snap.counter(c.label()) - before.counter(c.label());
    assert_eq!(delta(Counter::WorkspaceComputes), 1);
    assert_eq!(delta(Counter::MarkingScanned), 60);
    assert!(delta(Counter::Rule1Candidates) > 0);
    assert!(delta(Counter::Rule2Vertices) > 0);
    for phase in ["marking", "rule1", "rule2", "bitmap_rebuild", "key_rebuild"] {
        let p = snap
            .phase(phase)
            .unwrap_or_else(|| panic!("missing phase {phase}"));
        assert!(p.count >= 1, "phase {phase} never timed");
    }

    // JSONL round-trip: the line parses back to an identical snapshot.
    let line = snap.to_json_line();
    let back: Snapshot = serde_json::from_str(&line).unwrap();
    assert_eq!(back, snap);

    // Prometheus exposition carries the same counters.
    let mut buf = Vec::new();
    obs::write_prometheus(&snap, &mut buf).unwrap();
    let text = String::from_utf8(buf).unwrap();
    assert!(text.contains("pacds_workspace_computes_total"));
    assert!(text.contains("pacds_phase_duration_ns"));
}

#[cfg(not(feature = "obs"))]
#[test]
fn disabled_build_exposes_noop_api() {
    reference_run();
    assert!(!obs::enabled());

    // The full recording surface is callable but records nothing.
    obs::inc(Counter::WorkspaceComputes);
    obs::add(Counter::Rule1Candidates, 42);
    obs::record_phase_ns(obs::Phase::Marking, 1_000);
    {
        let _t = obs::phase_timer(obs::Phase::Verify);
    }
    let mut tally = obs::Tally::new();
    tally.bump();
    tally.add(7);
    tally.flush(Counter::Rule2PairsProbed);

    let snap = Snapshot::capture();
    assert!(!snap.enabled);
    assert!(snap.counters.is_empty(), "{:?}", snap.counters);
    assert!(snap.phases.is_empty());
    assert_eq!(snap.counter("workspace.computes"), 0);

    // Exporters still work on the empty snapshot.
    let back: Snapshot = serde_json::from_str(&snap.to_json_line()).unwrap();
    assert_eq!(back, snap);
    let mut buf = Vec::new();
    obs::write_prometheus(&snap, &mut buf).unwrap();
}
