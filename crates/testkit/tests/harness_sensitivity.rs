//! Meta-test: the differential harness must actually catch bugs.
//!
//! A deliberately wrong "implementation" (it skips Rule 2) is run through
//! the same capture → shrink → emit → replay flow the harness uses for
//! production code, proving end to end that a real regression would be
//! detected, minimised, and persisted as a replayable case file — and so
//! would an implementation that panics.

use pacds_core::{CdsConfig, Policy};
use pacds_graph::{gen, Graph};
use pacds_testkit::casefile::{case_dir, emit_case, replay, shrink_case, CaseFile};
use pacds_testkit::harness::{check_impl, run_impl_caught, ImplKind};
use pacds_testkit::oracle;

/// The planted bug: marking + Rule 1, but no Rule 2.
fn buggy_cds(g: &Graph, energy: &[u64], cfg: &CdsConfig) -> Vec<bool> {
    let marked = oracle::marking_oracle(g);
    oracle::rule1_oracle(g, &marked, cfg.policy, Some(energy), cfg.application)
}

#[test]
fn planted_bug_is_caught_shrunk_and_replayable() {
    // Rule 2 needs a triangle u–v–w with N(v) ⊆ N(u) ∪ N(w) while Rule 1
    // fires nowhere: v=0 sits in triangle {0,1,2}; its other neighbours 3
    // and 4 are covered by 1 and 2 respectively, and pendants 5..=8 keep
    // every closed neighbourhood incomparable so Rule 1 is inert. The
    // oracle prunes exactly vertex 0; the planted bug keeps it.
    let g = Graph::from_edges(
        9,
        &[
            (0, 1),
            (0, 2),
            (1, 2),
            (0, 3),
            (1, 3),
            (0, 4),
            (2, 4),
            (3, 5),
            (4, 6),
            (1, 7),
            (2, 8),
        ],
    );
    let energy: Vec<u64> = (0..g.n() as u64).map(|v| (v * 13 + 5) % 97).collect();
    let cfg = CdsConfig::policy(Policy::Degree);

    let expected = oracle::compute_cds_oracle(&g, Some(&energy), &cfg);
    let got = buggy_cds(&g, &energy, &cfg);
    assert_ne!(got, expected, "the planted bug must actually diverge");

    // Same flow as ConformanceReport::check_case on a mismatch. The
    // ImplKind recorded in the file is only a label here; replay() is
    // exercised separately below on a real-implementation case.
    let file = CaseFile::capture(
        "harness-sensitivity",
        ImplKind::Pipeline,
        &g,
        &energy,
        &cfg,
        &expected,
        &got,
    );
    let shrunk = shrink_case(file, |g2, e2| {
        buggy_cds(g2, e2, &cfg) != oracle::compute_cds_oracle(g2, Some(e2), &cfg)
    });
    assert!(
        shrunk.n < g.n(),
        "shrinker made no progress (still n={})",
        shrunk.n
    );
    // The shrunk instance must still expose the bug.
    let g2 = shrunk.graph();
    assert_ne!(
        buggy_cds(&g2, &shrunk.energy, &cfg),
        oracle::compute_cds_oracle(&g2, Some(&shrunk.energy), &cfg)
    );

    let path = emit_case(&shrunk);
    assert!(path.exists());
    assert!(path.starts_with(case_dir()));

    // A healthy implementation on the same recorded instance replays clean.
    let rep = replay(&path).expect("replay parses and runs");
    assert!(
        !rep.reproduces(),
        "pipeline should agree with the oracle on the shrunk instance"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn replay_reproduces_a_recorded_real_mismatch() {
    // Forge a case file whose `got` differs from what the implementation
    // actually produces — replay must recompute (not trust) the masks.
    let g = gen::path(6);
    let energy = vec![3u64; 6];
    let cfg = CdsConfig::policy(Policy::Id);
    let expected = oracle::compute_cds_oracle(&g, Some(&energy), &cfg);
    let file = CaseFile::capture(
        "replay-check",
        ImplKind::Pipeline,
        &g,
        &energy,
        &cfg,
        &expected,
        &[false; 6], // stale lie
    );
    let path = emit_case(&file);
    let rep = replay(&path).expect("replay runs");
    // The implementation is actually correct, so the recomputed masks agree
    // even though the recorded `got` claimed otherwise.
    assert!(!rep.reproduces());
    assert_eq!(pacds_testkit::casefile::to_mask(6, &rep.expected), expected);
    std::fs::remove_file(&path).ok();
}

#[test]
fn replay_rejects_case_files_naming_a_retired_implementation() {
    // Case files recorded against a removed entry point must fail cleanly
    // rather than panic or silently run something else.
    let g = gen::path(4);
    let energy = vec![1u64; 4];
    let cfg = CdsConfig::policy(Policy::Id);
    let mask = oracle::compute_cds_oracle(&g, Some(&energy), &cfg);
    for retired in [
        "parallel",
        "workspace",
        "distributed_seq",
        "distributed_threaded",
    ] {
        let file =
            CaseFile::capture_named("retired-impl", retired, &g, &energy, &cfg, &mask, &mask);
        let path = emit_case(&file);
        let err = replay(&path).expect_err("a retired implementation cannot replay");
        assert_eq!(err, format!("unknown implementation {retired:?}"));
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn a_panicking_implementation_fails_its_case_with_a_replayable_file() {
    // The distributed protocol refuses sequential application by contract
    // (it panics): driven there anyway, it stands in for an implementation
    // that panics on a case. The harness must record the failure — a
    // shrunk case file holding the panic message — not abort the sweep.
    let g = gen::cycle(7);
    let energy = vec![2u64; 7];
    let cfg = CdsConfig::sequential(Policy::Degree);
    let kind = ImplKind::DistributedFifo;
    assert!(!kind.applicable(&cfg));
    let msg = run_impl_caught(kind, &g, Some(&energy), &cfg).expect_err("it panics");
    assert!(!msg.is_empty());

    let expected = oracle::compute_cds_oracle(&g, Some(&energy), &cfg);
    let path = check_impl("panic-check", kind, &g, &energy, &cfg, &expected)
        .expect("a panic is a failing case");
    let file: CaseFile =
        serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).expect("case file parses");
    assert_eq!(file.panic.as_deref(), Some(msg.as_str()));
    assert!(file.n < g.n(), "the panicking case shrank (n={})", file.n);
    let rep = replay(&path).expect("replay runs");
    assert!(rep.reproduces() && rep.panic.is_some());
    std::fs::remove_file(&path).ok();
}
