//! A frozen copy of the v0 (pre-workspace) CDS pipeline, kept as the
//! benchmark baseline.
//!
//! The `workspace` benchmarks compare the retained-arena hot path against
//! the code this repo shipped before it existed: a fresh `Graph`, bitmap,
//! priority table and result mask allocated every interval, and coverage
//! decided by the full-word-scan predicates
//! ([`NeighborBitmap::closed_subset`] / [`NeighborBitmap::open_subset_pair`])
//! on every candidate with no pre-filtering. The functions here replicate
//! that pipeline so `BENCH_workspace.json` keeps measuring new-vs-old even
//! as the library's own passes evolve. Do not "fix" or speed these up —
//! equivalence with the current passes is pinned by a test below, but their
//! cost profile is the point.
//!
//! One part of the v0 cost is gone: v0 built its fresh `Graph` as
//! per-vertex adjacency lists, while `Graph` is now one compressed-sparse-
//! row layout, so the fresh graph is a `gen::unit_disk` into two new flat
//! arrays. `alloc` rows recorded before that change paid for the
//! adjacency-list copy as well and are not comparable with later ones.

use pacds_core::{marking, CdsConfig, PriorityKey, Rule2Semantics};
use pacds_graph::{Graph, NeighborBitmap, NodeId, VertexMask};

/// The v0 simultaneous Rule 1 pass: plain `closed_subset` word scans.
pub fn rule1_pass_seed(
    g: &Graph,
    bm: &NeighborBitmap,
    marked: &[bool],
    key: &PriorityKey,
) -> VertexMask {
    let mut next = marked.to_vec();
    for v in g.vertices() {
        if !marked[v as usize] {
            continue;
        }
        for &u in g.neighbors(v) {
            if marked[u as usize] && key.lt(v, u) && bm.closed_subset(v, u) {
                next[v as usize] = false;
                break;
            }
        }
    }
    next
}

/// The v0 simultaneous Rule 2 pass: `open_subset_pair` on every pair of
/// marked neighbours, coverage before priority.
pub fn rule2_pass_seed(
    g: &Graph,
    bm: &NeighborBitmap,
    marked: &[bool],
    key: &PriorityKey,
    semantics: Rule2Semantics,
) -> VertexMask {
    let mut next = marked.to_vec();
    let mut marked_nbrs: Vec<NodeId> = Vec::new();
    for v in g.vertices() {
        if !marked[v as usize] {
            continue;
        }
        marked_nbrs.clear();
        marked_nbrs.extend(
            g.neighbors(v)
                .iter()
                .copied()
                .filter(|&u| marked[u as usize]),
        );
        if marked_nbrs.len() < 2 {
            continue;
        }
        let mut kill = false;
        'pairs: for (i, &u) in marked_nbrs.iter().enumerate() {
            for &w in &marked_nbrs[i + 1..] {
                if !bm.open_subset_pair(v, u, w) {
                    continue;
                }
                let ok = match semantics {
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
                if ok {
                    kill = true;
                    break 'pairs;
                }
            }
        }
        if kill {
            next[v as usize] = false;
        }
    }
    next
}

/// The v0 end-to-end pipeline for simultaneous single-pass configurations:
/// every structure allocated fresh, exactly as `compute_cds` did before the
/// workspace existed.
///
/// # Panics
/// Panics on sequential or fixpoint configurations — the benchmarks only
/// exercise the paper's single-pass simultaneous semantics.
pub fn compute_cds_seed(g: &Graph, energy: Option<&[u64]>, cfg: &CdsConfig) -> VertexMask {
    assert_eq!(cfg.application, pacds_core::Application::Simultaneous);
    assert_eq!(cfg.schedule, pacds_core::PruneSchedule::SinglePass);
    let marked = marking(g);
    if !cfg.policy.prunes() {
        return marked;
    }
    let bm = NeighborBitmap::build(g);
    let key = PriorityKey::build(cfg.policy, g, energy);
    let after1 = rule1_pass_seed(g, &bm, &marked, &key);
    rule2_pass_seed(g, &bm, &after1, &key, cfg.rule2_semantics())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pacds_core::{compute_cds, CdsInput, Policy};
    use pacds_graph::gen;
    use rand::SeedableRng;

    /// The frozen baseline must stay bit-identical to the live pipeline —
    /// the benchmarks compare costs, not outputs.
    #[test]
    fn seed_pipeline_matches_current_pipeline() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for trial in 0..10 {
            let n = 40 + trial * 20;
            let g = gen::connected_gnp(&mut rng, n, 0.08, 8);
            let energy: Vec<u64> = (0..n as u64).map(|i| (i * 131) % 50).collect();
            for policy in Policy::ALL {
                let cfg = CdsConfig::policy(policy);
                let live = compute_cds(&CdsInput::with_energy(&g, &energy), &cfg);
                let seed = compute_cds_seed(&g, Some(&energy), &cfg);
                assert_eq!(live, seed, "trial {trial} {policy:?}");
            }
        }
    }
}
