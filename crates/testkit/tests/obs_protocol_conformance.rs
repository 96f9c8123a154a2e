//! Differential check of the protocol-overhead accounting: the message
//! counts the engine *observes* must equal the analytic predictions in
//! [`pacds_distributed::stats`] on the adversarial corpus, under every
//! delivery schedule.
//!
//! Two layers of evidence, both over the same corpus cases:
//!
//! * the engine's own send counts (`Run::sent`: hello, marker and hello
//!   payload entries) — always on;
//! * the `pacds-obs` hello/marker counters ticked where the engine puts a
//!   message on a link — only under `--features obs`, where the per-run
//!   *delta* of the global counters must match the per-round analytic
//!   split exactly.

use pacds_core::{CdsConfig, Policy};
use pacds_distributed::{protocol_stats, run_distributed, Schedule};
use pacds_testkit::corpus;

#[test]
fn observed_message_counts_match_analytic_stats_on_corpus() {
    let mut cases = corpus::named_families();
    cases.extend(corpus::random_unit_disk_cases(77, 6));

    let configs = [
        CdsConfig::policy(Policy::NoPruning),
        CdsConfig::policy(Policy::Id),
        CdsConfig::paper(Policy::EnergyDegree),
    ];

    let mut checked = 0usize;
    for case in &cases {
        for cfg in &configs {
            for schedule in [Schedule::Fifo, Schedule::Shuffled(case.graph.m() as u64)] {
                let expected = protocol_stats(&case.graph, cfg);

                #[cfg(feature = "obs")]
                let before = pacds_obs::Snapshot::capture();

                let run = run_distributed(&case.graph, Some(&case.energy), cfg, schedule);
                assert_eq!(
                    run.sent, expected,
                    "engine send counts diverged from analytic stats on {} ({:?}, {schedule:?})",
                    case.name, cfg.policy,
                );

                #[cfg(feature = "obs")]
                {
                    let after = pacds_obs::Snapshot::capture();
                    let delta = |label: &str| after.counter(label) - before.counter(label);
                    assert_eq!(
                        delta("dist.hello_messages"),
                        expected.hello_messages,
                        "hello counter diverged on {} ({:?})",
                        case.name,
                        cfg.policy,
                    );
                    assert_eq!(
                        delta("dist.marker_messages"),
                        expected.marker_messages,
                        "marker counter diverged on {} ({:?})",
                        case.name,
                        cfg.policy,
                    );
                    assert!(delta("dist.runs") >= 1);
                }

                checked += 1;
            }
        }
    }
    assert!(checked >= 30, "corpus sweep too small: {checked} runs");
}
