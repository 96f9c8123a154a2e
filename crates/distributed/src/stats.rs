//! Protocol overhead accounting.
//!
//! The marking process is attractive partly because its message complexity
//! is low and local: every host broadcasts its neighbour set once and its
//! marker up to twice. This module provides the exact per-round counts for
//! a given topology, verified against an instrumented run of the engine.

use pacds_core::CdsConfig;
use pacds_graph::Graph;
use serde::Serialize;

/// Message counts for one protocol execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct ProtocolStats {
    /// Hello messages (round 1): one per directed edge.
    pub hello_messages: u64,
    /// Marker messages (rounds 2–3): one per directed edge per exchange.
    pub marker_messages: u64,
    /// Total node-id entries carried inside hello payloads
    /// (`Σ_v deg(v)²`): the bandwidth-dominating term.
    pub hello_payload_entries: u64,
    /// `hello_messages + marker_messages`, materialised so serialized
    /// stats carry the headline number; [`ProtocolStats::new`] keeps it
    /// consistent.
    pub total_messages: u64,
}

impl ProtocolStats {
    /// Builds stats from the per-round counts, deriving `total_messages`.
    pub fn new(hello_messages: u64, marker_messages: u64, hello_payload_entries: u64) -> Self {
        ProtocolStats {
            hello_messages,
            marker_messages,
            hello_payload_entries,
            total_messages: hello_messages + marker_messages,
        }
    }
}

/// The exact message counts the protocol in [`crate::engine`] produces on
/// `g` under `cfg`.
///
/// ```
/// use pacds_core::{CdsConfig, Policy};
/// use pacds_distributed::protocol_stats;
/// let g = pacds_graph::gen::path(5); // 4 links
/// let s = protocol_stats(&g, &CdsConfig::policy(Policy::Id));
/// assert_eq!(s.hello_messages, 8);   // one per directed edge
/// assert_eq!(s.total_messages, 24);
/// ```
///
/// * Round 1 (hello): every host sends `N(v)` to each neighbour — `2m`
///   messages carrying `Σ deg(v)²` id entries in total.
/// * Round 2 (markers): `2m` messages.
/// * Round 3 (post-Rule-1 markers): another `2m`, only when `cfg` prunes.
pub fn protocol_stats(g: &Graph, cfg: &CdsConfig) -> ProtocolStats {
    let directed_edges = 2 * g.m() as u64;
    let marker_rounds = if cfg.policy.prunes() { 2 } else { 1 };
    let payload: u64 = g
        .vertices()
        .map(|v| {
            let d = g.degree(v) as u64;
            d * d
        })
        .sum();
    ProtocolStats::new(directed_edges, directed_edges * marker_rounds, payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pacds_core::Policy;
    use pacds_graph::gen;

    #[test]
    fn counts_on_classic_families() {
        let g = gen::path(5); // m = 4
        let s = protocol_stats(&g, &CdsConfig::policy(Policy::Id));
        assert_eq!(s.hello_messages, 8);
        assert_eq!(s.marker_messages, 16);
        // degrees 1,2,2,2,1 -> payload 1+4+4+4+1 = 14
        assert_eq!(s.hello_payload_entries, 14);
        assert_eq!(s.total_messages, 24);
    }

    #[test]
    fn no_pruning_skips_the_second_marker_round() {
        let g = gen::cycle(6); // m = 6
        let nr = protocol_stats(&g, &CdsConfig::policy(Policy::NoPruning));
        assert_eq!(nr.marker_messages, 12);
        let id = protocol_stats(&g, &CdsConfig::policy(Policy::Id));
        assert_eq!(id.marker_messages, 24);
    }

    #[test]
    fn message_count_matches_instrumented_engine() {
        // The engine counts every message it puts on a link; the analytic
        // formula must agree on each entry, under either schedule.
        use crate::engine::{run_distributed, Schedule};
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        for (n, p) in [(12usize, 0.2), (30, 0.1), (50, 0.08)] {
            let g = gen::connected_gnp(&mut rng, n, p, 8);
            for cfg in [
                CdsConfig::policy(Policy::NoPruning),
                CdsConfig::policy(Policy::Id),
                CdsConfig::paper(Policy::EnergyDegree),
            ] {
                let energy = vec![5u64; n];
                for schedule in [Schedule::Fifo, Schedule::Shuffled(n as u64)] {
                    let run = run_distributed(&g, Some(&energy), &cfg, schedule);
                    assert_eq!(
                        run.sent,
                        protocol_stats(&g, &cfg),
                        "n={n} {cfg:?} {schedule:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn serialization_includes_total_messages() {
        let g = gen::path(5);
        let s = protocol_stats(&g, &CdsConfig::policy(Policy::Id));
        assert_eq!(s.total_messages, s.hello_messages + s.marker_messages);
        let json = serde_json::to_string(&s).unwrap();
        assert!(
            json.contains("\"total_messages\":24"),
            "serialized stats must carry the headline count: {json}"
        );
    }

    #[test]
    fn payload_grows_quadratically_with_degree() {
        let star = gen::star(11); // center degree 10, leaves degree 1
        let s = protocol_stats(&star, &CdsConfig::policy(Policy::Id));
        assert_eq!(s.hello_payload_entries, 100 + 10);
    }
}
