//! Verification of the CDS properties the paper proves.

use pacds_graph::{algo, Graph, NodeId};
use std::collections::VecDeque;

/// Why a vertex set fails to be a connected dominating set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CdsViolation {
    /// `witness` is neither in the set nor adjacent to any member.
    NotDominating { witness: NodeId },
    /// The induced subgraph is disconnected.
    NotConnected,
    /// The set is empty but the graph has undominated vertices.
    Empty,
}

impl std::fmt::Display for CdsViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CdsViolation::NotDominating { witness } => {
                write!(f, "vertex {witness} is not dominated")
            }
            CdsViolation::NotConnected => write!(f, "induced subgraph is disconnected"),
            CdsViolation::Empty => write!(f, "set is empty but graph is non-trivial"),
        }
    }
}

/// Whether `mask` is a dominating set of `g`.
pub fn is_dominating_set(g: &Graph, mask: &[bool]) -> bool {
    dominating_witness(g, mask).is_none()
}

/// A vertex not dominated by `mask`, if any.
fn dominating_witness(g: &Graph, mask: &[bool]) -> Option<NodeId> {
    for v in g.vertices() {
        if mask[v as usize] {
            continue;
        }
        if !g.neighbors(v).iter().any(|&u| mask[u as usize]) {
            return Some(v);
        }
    }
    None
}

/// Whether `mask` is a *connected* dominating set of `g`.
pub fn is_connected_dominating_set(g: &Graph, mask: &[bool]) -> bool {
    verify_cds(g, mask).is_ok()
}

/// Checks domination and induced connectivity, reporting the first failure.
///
/// The complete graph is special-cased to match the paper: the marking
/// process marks nothing on `K_n`, and routing needs no gateways there, so
/// an empty set on a complete graph verifies.
pub fn verify_cds(g: &Graph, mask: &[bool]) -> Result<(), CdsViolation> {
    verify_cds_scratch(g, mask, &mut Vec::new(), &mut VecDeque::new())
}

/// [`verify_cds`] with caller-provided BFS scratch (visited flags + queue),
/// so the steady-state interval loop can verify every computed set without
/// heap allocation. Buffer contents on entry are ignored.
pub fn verify_cds_scratch(
    g: &Graph,
    mask: &[bool],
    seen: &mut Vec<bool>,
    queue: &mut VecDeque<NodeId>,
) -> Result<(), CdsViolation> {
    let _t = pacds_obs::phase_timer(pacds_obs::Phase::Verify);
    pacds_obs::inc(pacds_obs::Counter::VerifyRuns);
    let result = verify_cds_scratch_inner(g, mask, seen, queue);
    if result.is_err() {
        pacds_obs::inc(pacds_obs::Counter::VerifyFailures);
    }
    result
}

fn verify_cds_scratch_inner(
    g: &Graph,
    mask: &[bool],
    seen: &mut Vec<bool>,
    queue: &mut VecDeque<NodeId>,
) -> Result<(), CdsViolation> {
    assert_eq!(mask.len(), g.n());
    if mask.iter().all(|&b| !b) {
        return if g.is_complete() {
            Ok(())
        } else {
            Err(CdsViolation::Empty)
        };
    }
    if let Some(witness) = dominating_witness(g, mask) {
        return Err(CdsViolation::NotDominating { witness });
    }
    if !algo::is_connected_within_scratch(g, mask, seen, queue) {
        return Err(CdsViolation::NotConnected);
    }
    Ok(())
}

/// Property 3 of the paper: for every vertex pair, *some* shortest path
/// uses only gateways as intermediates. Equivalently, the shortest path
/// restricted to gateway intermediates has the same hop count as the
/// unrestricted one. Holds for the raw marking output.
pub fn preserves_shortest_paths(g: &Graph, mask: &[bool]) -> bool {
    for s in g.vertices() {
        let free = algo::bfs_distances(g, s);
        for t in g.vertices() {
            if s >= t || free[t as usize] == u32::MAX {
                continue;
            }
            match algo::restricted_shortest_path(g, s, t, |v| mask[v as usize]) {
                Ok(path) => {
                    if (path.len() - 1) as u32 != free[t as usize] {
                        return false;
                    }
                }
                Err(_) => return false,
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::marking::marking;
    use pacds_graph::gen;

    #[test]
    fn domination_detects_witness() {
        let g = gen::path(4);
        assert!(is_dominating_set(&g, &[false, true, true, false]));
        assert!(!is_dominating_set(&g, &[true, false, false, false]));
        assert_eq!(
            dominating_witness(&g, &[true, false, false, false]),
            Some(2)
        );
    }

    #[test]
    fn verify_rejects_disconnected_set() {
        let g = gen::path(5);
        // {0 dominated by 1, ...}: {1, 3} dominates but is disconnected.
        assert_eq!(
            verify_cds(&g, &[false, true, false, true, false]),
            Err(CdsViolation::NotConnected)
        );
    }

    #[test]
    fn verify_accepts_interior_of_path() {
        let g = gen::path(5);
        assert!(verify_cds(&g, &[false, true, true, true, false]).is_ok());
    }

    #[test]
    fn empty_set_on_complete_graph_is_ok() {
        let g = gen::complete(4);
        assert!(verify_cds(&g, &[false; 4]).is_ok());
        let h = gen::path(4);
        assert_eq!(verify_cds(&h, &[false; 4]), Err(CdsViolation::Empty));
    }

    #[test]
    fn marking_output_verifies_on_classic_families() {
        for g in [gen::path(7), gen::cycle(9), gen::star(6), gen::grid(3, 5)] {
            let m = marking(&g);
            assert!(verify_cds(&g, &m).is_ok());
        }
    }

    #[test]
    fn marking_output_preserves_shortest_paths() {
        for g in [gen::path(7), gen::cycle(9), gen::grid(3, 4)] {
            let m = marking(&g);
            assert!(preserves_shortest_paths(&g, &m));
        }
    }

    #[test]
    fn property3_fails_for_too_small_sets() {
        // On a 6-cycle, {0, 1} is not even dominating; {0,1,2,3} misses the
        // shortest path 5-4 ... pick a set that dominates but breaks P3:
        // C6 with chords is overkill — use path: interior minus one.
        let g = gen::cycle(6);
        let mask = [true, true, true, true, false, false];
        // 4 and 5 are dominated (4 by 3, 5 by 0) and the set is connected,
        // but the shortest path 4-5 (1 hop) still works since endpoints are
        // exempt... check a pair that must detour: 3 to 5 via 4 is blocked.
        assert!(verify_cds(&g, &mask).is_ok());
        assert!(!preserves_shortest_paths(&g, &mask));
    }
}
