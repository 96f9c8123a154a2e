//! Human-readable explanations of gateway decisions.
//!
//! Debugging a CDS policy usually starts with "why is host 17 (not) a
//! gateway?". [`explain`] answers that for the simultaneous single-pass
//! pipeline, naming the witnesses: the unconnected neighbour pair that
//! marked the host, the covering host of Rule 1, or the covering pair of
//! Rule 2.

use crate::pipeline::{Application, CdsConfig, CdsInput, PruneSchedule};
use crate::priority::PriorityKey;
use crate::rules::{rule1_pass, Rule2Semantics};
use pacds_graph::{Graph, NeighborBitmap, NodeId};
use serde::Serialize;

/// Why a host ended up with its gateway/non-gateway status.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub enum Explanation {
    /// Never marked: every pair of neighbours is directly connected
    /// (shown: the neighbour list).
    NotMarked {
        /// The host's neighbours.
        neighbors: Vec<NodeId>,
    },
    /// Marked and survived all rules; `witness` is an unconnected
    /// neighbour pair that justified the marking.
    Gateway {
        /// Two neighbours of the host with no direct link.
        witness: (NodeId, NodeId),
    },
    /// Unmarked by Rule 1: `by`'s closed neighbourhood covers the host's
    /// and `by` has higher priority.
    RemovedByRule1 {
        /// The covering, higher-priority marked neighbour.
        by: NodeId,
    },
    /// Unmarked by Rule 2: the pair's open neighbourhoods cover the
    /// host's.
    RemovedByRule2 {
        /// The covering marked neighbour pair.
        by: (NodeId, NodeId),
    },
}

/// Explains host `v`'s status under `cfg`.
///
/// # Panics
/// Panics for sequential or fixpoint configurations (their decisions are
/// order-dependent and have no single-witness explanation) and for
/// out-of-range `v`.
pub fn explain(input: &CdsInput<'_>, cfg: &CdsConfig, v: NodeId) -> Explanation {
    assert_eq!(cfg.application, Application::Simultaneous);
    assert_eq!(cfg.schedule, PruneSchedule::SinglePass);
    let g = input.graph;
    assert!((v as usize) < g.n(), "host {v} out of range");

    // Stage 0: marking witness.
    let witness = marking_witness(g, v);
    let Some(witness) = witness else {
        return Explanation::NotMarked {
            neighbors: g.neighbors(v).to_vec(),
        };
    };
    if !cfg.policy.prunes() {
        return Explanation::Gateway { witness };
    }

    let marked = crate::marking(g);
    let bm = NeighborBitmap::build(g);
    let key = PriorityKey::build(cfg.policy, g, input.energy);

    // Stage 1: Rule 1 witness against the marking snapshot.
    if let Some(&by) = g
        .neighbors(v)
        .iter()
        .find(|&&u| marked[u as usize] && key.lt(v, u) && bm.closed_subset(v, u))
    {
        return Explanation::RemovedByRule1 { by };
    }

    // Stage 2: Rule 2 witness against the post-Rule-1 snapshot.
    let semantics = match cfg.policy {
        crate::Policy::Id => Rule2Semantics::MinOfThree,
        _ => cfg.rule2,
    };
    let after1 = rule1_pass(g, &bm, &marked, &key, None);
    if after1[v as usize] {
        let marked_nbrs: Vec<NodeId> = g
            .neighbors(v)
            .iter()
            .copied()
            .filter(|&u| after1[u as usize])
            .collect();
        for (i, &u) in marked_nbrs.iter().enumerate() {
            for &w in &marked_nbrs[i + 1..] {
                if !bm.open_subset_pair(v, u, w) {
                    continue;
                }
                let fires = match semantics {
                    Rule2Semantics::MinOfThree => key.lt(v, u) && key.lt(v, w),
                    Rule2Semantics::CaseAnalysis => {
                        let cu = bm.open_subset_pair(u, v, w);
                        let cw = bm.open_subset_pair(w, v, u);
                        match (cu, cw) {
                            (false, false) => true,
                            (true, false) => key.lt(v, u),
                            (false, true) => key.lt(v, w),
                            (true, true) => key.lt(v, u) && key.lt(v, w),
                        }
                    }
                };
                if fires {
                    return Explanation::RemovedByRule2 { by: (u, w) };
                }
            }
        }
        return Explanation::Gateway { witness };
    }

    // v was removed in Rule 1 — but we found no witness above; impossible
    // because the witness search mirrors rule1_pass exactly.
    unreachable!("rule1_pass removed {v} but no witness was found");
}

/// An unconnected neighbour pair of `v`, if any (the marking witness).
fn marking_witness(g: &Graph, v: NodeId) -> Option<(NodeId, NodeId)> {
    let nbrs = g.neighbors(v);
    for (i, &x) in nbrs.iter().enumerate() {
        for &y in &nbrs[i + 1..] {
            if !g.has_edge(x, y) {
                return Some((x, y));
            }
        }
    }
    None
}

impl std::fmt::Display for Explanation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Explanation::NotMarked { neighbors } => write!(
                f,
                "not marked: all neighbour pairs of {neighbors:?} are directly connected"
            ),
            Explanation::Gateway { witness: (x, y) } => write!(
                f,
                "gateway: neighbours {x} and {y} have no direct link, and no rule removed it"
            ),
            Explanation::RemovedByRule1 { by } => write!(
                f,
                "removed by Rule 1: host {by} covers its closed neighbourhood with higher priority"
            ),
            Explanation::RemovedByRule2 { by: (u, w) } => write!(
                f,
                "removed by Rule 2: hosts {u} and {w} jointly cover its neighbourhood"
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compute_cds, Policy};
    use pacds_graph::gen;
    use rand::SeedableRng;

    #[test]
    fn explanations_agree_with_the_computed_set() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for trial in 0..20 {
            let n = 8 + trial;
            let g = gen::connected_gnp(&mut rng, n, 0.2, 8);
            let energy: Vec<u64> = (0..n as u64).map(|i| i % 6).collect();
            for policy in Policy::ALL {
                for cfg in [CdsConfig::policy(policy), CdsConfig::paper(policy)] {
                    let input = CdsInput::with_energy(&g, &energy);
                    let cds = compute_cds(&input, &cfg);
                    for v in 0..n as NodeId {
                        let e = explain(&input, &cfg, v);
                        let is_gateway = matches!(e, Explanation::Gateway { .. });
                        assert_eq!(
                            is_gateway, cds[v as usize],
                            "trial {trial} {policy:?} v={v}: {e:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn witnesses_are_faithful() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let g = gen::connected_gnp(&mut rng, 20, 0.25, 8);
        let input = CdsInput::new(&g);
        let cfg = CdsConfig::policy(Policy::Id);
        for v in 0..20 as NodeId {
            match explain(&input, &cfg, v) {
                Explanation::NotMarked { neighbors } => {
                    for (i, &x) in neighbors.iter().enumerate() {
                        for &y in &neighbors[i + 1..] {
                            assert!(g.has_edge(x, y));
                        }
                    }
                }
                Explanation::Gateway { witness: (x, y) } => {
                    assert!(g.has_edge(v, x) && g.has_edge(v, y));
                    assert!(!g.has_edge(x, y));
                }
                Explanation::RemovedByRule1 { by } => {
                    assert!(g.closed_covered_by(v, by));
                    assert!(v < by, "ID priority: the cover has the larger id");
                }
                Explanation::RemovedByRule2 { by: (u, w) } => {
                    assert!(g.open_covered_by_pair(v, u, w));
                }
            }
        }
    }

    #[test]
    fn path_endpoints_are_not_marked() {
        let g = gen::path(4);
        let input = CdsInput::new(&g);
        let cfg = CdsConfig::policy(Policy::Id);
        assert!(matches!(
            explain(&input, &cfg, 0),
            Explanation::NotMarked { .. }
        ));
        assert!(matches!(
            explain(&input, &cfg, 1),
            Explanation::Gateway { witness: (0, 2) }
        ));
    }

    #[test]
    #[should_panic]
    fn sequential_configs_are_rejected() {
        let g = gen::path(4);
        explain(&CdsInput::new(&g), &CdsConfig::sequential(Policy::Id), 1);
    }
}
