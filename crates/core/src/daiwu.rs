//! The Dai-Wu generalised pruning rule ("Rule k").
//!
//! Follow-up work to this paper (Dai & Wu, *An Extended Localized
//! Algorithm for Connected Dominating Set Formation in Ad Hoc Wireless
//! Networks*) replaces the pair-based Rule 1/Rule 2 with a single rule
//! that closes exactly the soundness gap documented in
//! [`crate::rules::Rule2Semantics::CaseAnalysis`]:
//!
//! > a marked host `v` unmarks itself iff its open neighbourhood is
//! > covered by a **connected** set `C` of marked neighbours, each with
//! > **strictly higher priority** than `v`
//! > (`N(v) ⊆ C ∪ ∪_{u∈C} N(u)`).
//!
//! Because any covering set can be grown to the full connected component
//! of the higher-priority marked neighbourhood, it suffices to test each
//! component of `G[H]`, `H = {u ∈ N(v) : marked(u), key(u) > key(v)}`.
//!
//! With `C = {u}` this is Rule 1; with `C = {u, w}` it is (the sound
//! variant of) Rule 2; larger `C` prunes configurations the paper's rules
//! cannot. Simultaneous application is safe for any strict total priority
//! order — the coverage relation composes along decreasing priority.

use crate::priority::PriorityKey;
use pacds_graph::{Graph, NeighborBitmap, NodeId, VertexMask};

/// One simultaneous Rule-k pass over the marked snapshot.
///
/// Returns the new marked mask; `removed` (if provided) collects the
/// unmarked vertices in id order.
pub fn rule_k_pass(
    g: &Graph,
    bm: &NeighborBitmap,
    marked: &[bool],
    key: &PriorityKey,
    mut removed: Option<&mut Vec<NodeId>>,
) -> VertexMask {
    let mut next = marked.to_vec();
    let mut higher: Vec<NodeId> = Vec::new();
    for v in g.vertices() {
        if !marked[v as usize] {
            continue;
        }
        higher.clear();
        higher.extend(
            g.neighbors(v)
                .iter()
                .copied()
                .filter(|&u| marked[u as usize] && key.lt(v, u)),
        );
        if higher.is_empty() {
            continue;
        }
        if some_component_covers(g, bm, v, &higher) {
            next[v as usize] = false;
            if let Some(r) = removed.as_deref_mut() {
                r.push(v);
            }
        }
    }
    next
}

/// Whether some connected component of `G[higher]` covers `N(v)`.
fn some_component_covers(g: &Graph, bm: &NeighborBitmap, v: NodeId, higher: &[NodeId]) -> bool {
    let k = higher.len();
    let mut seen = vec![false; k];
    let mut component: Vec<NodeId> = Vec::with_capacity(k);
    let mut stack: Vec<usize> = Vec::new();
    for start in 0..k {
        if seen[start] {
            continue;
        }
        component.clear();
        stack.push(start);
        seen[start] = true;
        while let Some(i) = stack.pop() {
            component.push(higher[i]);
            for (j, &u) in higher.iter().enumerate() {
                if !seen[j] && g.has_edge(higher[i], u) {
                    seen[j] = true;
                    stack.push(j);
                }
            }
        }
        if bm.union_covers(v, &component) {
            return true;
        }
    }
    false
}

/// Convenience: marking followed by one Rule-k pass.
pub fn compute_cds_daiwu(
    g: &Graph,
    energy: Option<&[crate::EnergyLevel]>,
    policy: crate::Policy,
) -> VertexMask {
    let marked = crate::marking(g);
    if !policy.prunes() {
        return marked;
    }
    let bm = NeighborBitmap::build(g);
    let key = PriorityKey::build(policy, g, energy);
    rule_k_pass(g, &bm, &marked, &key, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compute_cds, verify_cds, CdsConfig, CdsInput, Policy};
    use pacds_graph::{gen, mask_to_vec};
    use rand::SeedableRng;

    #[test]
    fn subsumes_rule1_on_twin_hubs() {
        // Twin hubs with equal closed neighbourhoods: Rule 1 removes the
        // lower id; so does Rule k (C = {other hub}).
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]);
        let cds = compute_cds_daiwu(&g, None, Policy::Id);
        assert_eq!(mask_to_vec(&cds), vec![1]);
    }

    #[test]
    fn subsumes_rule2_on_covered_triple() {
        // v=0 covered by the pair {1, 2} (both higher id): Rule k removes 0.
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 4)]);
        let cds = compute_cds_daiwu(&g, None, Policy::Id);
        assert!(!cds[0]);
        assert!(verify_cds(&g, &cds).is_ok());
    }

    #[test]
    fn prunes_three_way_coverage_the_paper_rules_miss() {
        // Hub 0 with six spokes arranged so that no *pair* of marked
        // higher-priority neighbours covers N(0), but a connected triple
        // does. Vertices 1,2,3 form a triangle around 0; each also owns a
        // private pendant (4,5,6) adjacent to 0.
        // N(0) = {1,2,3,4,5,6}; N(1) ⊇ {4}, N(2) ⊇ {5}, N(3) ⊇ {6}.
        let g = Graph::from_edges(
            7,
            &[
                (0, 1),
                (0, 2),
                (0, 3),
                (0, 4),
                (0, 5),
                (0, 6),
                (1, 2),
                (1, 3),
                (2, 3),
                (1, 4),
                (2, 5),
                (3, 6),
            ],
        );
        // Pairs fail: e.g. {1,2} misses 6. The triple {1,2,3} covers.
        let pair_based = compute_cds(&CdsInput::new(&g), &CdsConfig::policy(Policy::Id));
        assert!(pair_based[0], "the paper's rules keep the hub");
        let cds = compute_cds_daiwu(&g, None, Policy::Id);
        assert!(!cds[0], "Rule k removes the hub via the triple");
        assert!(verify_cds(&g, &cds).is_ok());
    }

    #[test]
    fn requires_connected_covering_set() {
        // Path 1-0-2 with pendants: 0's higher-priority neighbours {1,2}
        // are NOT adjacent, so even though together they'd cover N(0),
        // Rule k must keep 0 (no connected covering component).
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (1, 3), (2, 4)]);
        let cds = compute_cds_daiwu(&g, None, Policy::Id);
        assert!(cds[0], "disconnected cover must not fire");
        assert!(verify_cds(&g, &cds).is_ok());
    }

    #[test]
    fn always_yields_a_cds_and_never_beats_marking() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        for trial in 0..40 {
            let n = 8 + trial % 40;
            let g = gen::connected_gnp(&mut rng, n, 0.15, 8);
            let energy: Vec<u64> = (0..n as u64).map(|i| i % 5).collect();
            for policy in [
                Policy::Id,
                Policy::Degree,
                Policy::Energy,
                Policy::EnergyDegree,
            ] {
                let cds = compute_cds_daiwu(&g, Some(&energy), policy);
                assert!(verify_cds(&g, &cds).is_ok(), "trial {trial} {policy:?}");
                let marked = crate::marking(&g);
                for v in 0..n {
                    assert!(!cds[v] || marked[v]);
                }
            }
        }
    }

    #[test]
    fn usually_no_larger_than_the_paper_rules() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(32);
        let mut wins = 0;
        let trials = 25;
        for _ in 0..trials {
            let g = gen::connected_gnp(&mut rng, 40, 0.12, 8);
            let count = |m: &[bool]| m.iter().filter(|&&b| b).count();
            let pair = count(&compute_cds(
                &CdsInput::new(&g),
                &CdsConfig::policy(Policy::Degree),
            ));
            let k = count(&compute_cds_daiwu(&g, None, Policy::Degree));
            if k <= pair {
                wins += 1;
            }
        }
        assert!(
            wins * 10 >= trials * 9,
            "Rule k should rarely lose to the pair rules ({wins}/{trials})"
        );
    }
}
