//! Integration tests that re-enact the paper's worked examples.
//!
//! * Figure 1 — the 5-node marking example (§2.2).
//! * Figures 3–4 — the Rule 1 / Rule 2 mini-examples.
//! * §3.3 / Figures 6–9 — the 27-node walkthrough. The full topology is not
//!   printed in the paper, but the neighbour sets it quotes pin down two
//!   clusters exactly (hosts 1–11 around nodes 2/4/9, and hosts 20–27
//!   around nodes 21/22/27); we rebuild those and check every rule-by-rule
//!   claim the text makes about them.

use pacds::core::{
    compute_cds_trace, marking, rule1_pass, rule2_pass, CdsConfig, CdsInput, Policy, PriorityKey,
    Rule2Semantics,
};
use pacds::graph::{mask_to_vec, Graph, NeighborBitmap};

// ---------------------------------------------------------------- Figure 1

/// Figure 1: u, v, w, x, y with v, w the only marked hosts.
/// Encoding: u=0, v=1, w=2, x=3, y=4.
#[test]
fn figure1_marking_yields_v_and_w() {
    let g = Graph::from_edges(5, &[(0, 1), (0, 4), (1, 2), (1, 4), (2, 3)]);
    assert_eq!(mask_to_vec(&marking(&g)), vec![1, 2]);
    // And the marked set is a CDS with intact shortest paths (Props 1-3).
    let m = marking(&g);
    assert!(pacds::core::verify_cds(&g, &m).is_ok());
    assert!(pacds::core::verify::preserves_shortest_paths(&g, &m));
}

// ------------------------------------------------------------ Figures 3, 4

/// Figure 3(a): `N[v] ⊆ N[u]` with distinct neighbourhoods — only `u`
/// remains a gateway under Rule 1.
#[test]
fn figure3a_rule1_removes_covered_vertex() {
    // v=0, u=1; v's closed neighbourhood {0,1,2} inside u's {0,1,2,3}.
    let g = Graph::from_edges(4, &[(0, 1), (0, 2), (1, 2), (1, 3)]);
    let bm = NeighborBitmap::build(&g);
    let key = PriorityKey::build(Policy::Id, &g, None);
    // Both marked (hand-forced, as in the figure's snapshot).
    let out = rule1_pass(&g, &bm, &[true, true, false, false], &key, None);
    assert_eq!(mask_to_vec(&out), vec![1]);
}

/// Figure 3(b): `N[v] = N[u]` — exactly one of the twins is removed, and
/// the smaller id loses.
#[test]
fn figure3b_rule1_breaks_twin_tie_by_id() {
    let g = Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]);
    let bm = NeighborBitmap::build(&g);
    let key = PriorityKey::build(Policy::Id, &g, None);
    let out = rule1_pass(&g, &bm, &[true, true, false, false], &key, None);
    assert_eq!(mask_to_vec(&out), vec![1]);
}

/// Figure 4: `v` covered by two marked neighbours `u, w` — Rule 2 removes
/// `v` when it has the minimum id.
#[test]
fn figure4_rule2_removes_min_id_covered_vertex() {
    // v=0 adjacent to u=1, w=2 (u-w adjacent); v's other neighbour 3 is
    // covered by u; pendant 4 keeps w marked.
    let g = Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 4)]);
    let bm = NeighborBitmap::build(&g);
    let key = PriorityKey::build(Policy::Id, &g, None);
    let marked = marking(&g);
    let out = rule2_pass(&g, &bm, &marked, &key, Rule2Semantics::MinOfThree, None);
    assert!(!out[0], "v has the minimum id and is covered");
    assert!(out[1] && out[2]);
}

// ------------------------------------------- §3.3, hosts 1..11 (Figure 6)

/// The §3.3 neighbourhoods around hosts 2, 4, 9:
/// `N(1) = {2,4}`, `N(2) = {1,3,4,5,6,7,8,9}`, `N(4) = {1,2,3,9,10,11}`,
/// `N(9) = {2,4,5,6,7,8,10}`; hosts 3, 5–8, 10, 11 have no edges among
/// themselves. Host ids used verbatim (0 unused).
fn section33_low_cluster() -> Graph {
    let mut edges = vec![(1, 2), (1, 4), (2, 4)];
    edges.extend([(2, 3), (2, 5), (2, 6), (2, 7), (2, 8), (2, 9)]);
    edges.extend([(4, 3), (4, 9), (4, 10), (4, 11)]);
    edges.extend([(9, 5), (9, 6), (9, 7), (9, 8), (9, 10)]);
    Graph::from_edges(12, &edges)
}

#[test]
fn section33_neighbor_sets_match_the_paper() {
    let g = section33_low_cluster();
    assert_eq!(g.neighbors(2), &[1, 3, 4, 5, 6, 7, 8, 9]);
    assert_eq!(g.neighbors(4), &[1, 2, 3, 9, 10, 11]);
    assert_eq!(g.neighbors(9), &[2, 4, 5, 6, 7, 8, 10]);
    assert_eq!(g.neighbors(1), &[2, 4]);
}

/// "Node 1 will not mark itself ... node 4 will mark itself" (§3.3), and
/// the hub trio 2, 4, 9 are exactly the marked hosts of this cluster.
#[test]
fn section33_marking_marks_the_hubs() {
    let g = section33_low_cluster();
    assert_eq!(mask_to_vec(&marking(&g)), vec![2, 4, 9]);
}

/// "Node 2 can unmark itself by applying Rule 2" — `N(2) ⊆ N(4) ∪ N(9)`
/// and 2 has the minimum id among {2, 4, 9}.
#[test]
fn section33_rule2_id_unmarks_node_2() {
    let g = section33_low_cluster();
    let bm = NeighborBitmap::build(&g);
    let key = PriorityKey::build(Policy::Id, &g, None);
    let marked = marking(&g);
    let out = rule2_pass(&g, &bm, &marked, &key, Rule2Semantics::MinOfThree, None);
    assert_eq!(mask_to_vec(&out), vec![4, 9]);
}

/// "Node 9 can unmark itself by applying Rule 2a": 9 and 2 are covered,
/// 4 is not (host 11 is private to it), and `nd(9) = 7 < nd(2) = 8`.
#[test]
fn section33_rule2a_unmarks_node_9_not_node_2() {
    let g = section33_low_cluster();
    let bm = NeighborBitmap::build(&g);
    let key = PriorityKey::build(Policy::Degree, &g, None);
    let marked = marking(&g);
    let out = rule2_pass(&g, &bm, &marked, &key, Rule2Semantics::CaseAnalysis, None);
    assert!(
        !out[9],
        "node 9 has the smaller degree among the covered pair"
    );
    assert!(out[2], "node 2 outdegrees node 9 and must stay");
    assert!(out[4], "node 4 is not covered");
}

/// Rule 2b at the paper's energy snapshot: el(2) = el(9), so the id
/// tie-break removes node 2 (the text's Figure 8(h) narrative).
#[test]
fn section33_rule2b_unmarks_node_2_on_energy_tie() {
    let g = section33_low_cluster();
    let bm = NeighborBitmap::build(&g);
    let mut energy = vec![5u64; 12];
    energy[4] = 9; // node 4's level is irrelevant: it is not covered
    let key = PriorityKey::build(Policy::Energy, &g, Some(&energy));
    let marked = marking(&g);
    let out = rule2_pass(&g, &bm, &marked, &key, Rule2Semantics::CaseAnalysis, None);
    assert!(!out[2], "energy tie, id(2) < id(9)");
    assert!(out[9] && out[4]);
}

// ----------------------------------------- §3.3, hosts 20..27 (Figures 6-9)

/// The §3.3 cluster around hosts 21, 22, 27:
/// `N[21] = {21,22,23,24}`, `N[22] = {20,...,27}`, `N[27] = {22,25,26,27}`,
/// with 23-24 and 25-26 unconnected so 21, 22 and 27 are all marked.
fn section33_high_cluster() -> Graph {
    let mut edges = vec![(21, 22), (21, 23), (21, 24)];
    edges.extend([(22, 20), (22, 23), (22, 24), (22, 25), (22, 26), (22, 27)]);
    edges.extend([(27, 25), (27, 26)]);
    Graph::from_edges(28, &edges)
}

#[test]
fn section33_high_cluster_marks_21_22_27() {
    let g = section33_high_cluster();
    let marked: Vec<u32> = mask_to_vec(&marking(&g))
        .into_iter()
        .filter(|&v| v >= 20)
        .collect();
    assert_eq!(marked, vec![21, 22, 27]);
}

/// "After applying Rule 1, node 21 will be unmarked" — and 27 survives the
/// id comparison (id(27) > id(22)).
#[test]
fn section33_rule1_id_unmarks_only_21() {
    let g = section33_high_cluster();
    let bm = NeighborBitmap::build(&g);
    let key = PriorityKey::build(Policy::Id, &g, None);
    let out = rule1_pass(&g, &bm, &marking(&g), &key, None);
    assert!(!out[21]);
    assert!(out[22]);
    assert!(out[27], "id(27) > id(22): Rule 1 keeps node 27");
}

/// "After applying Rule 1a, both nodes 21 and 27 will be unmarked" —
/// degree priority removes both covered low-degree hosts.
#[test]
fn section33_rule1a_unmarks_21_and_27() {
    let g = section33_high_cluster();
    let bm = NeighborBitmap::build(&g);
    let key = PriorityKey::build(Policy::Degree, &g, None);
    let out = rule1_pass(&g, &bm, &marking(&g), &key, None);
    assert!(!out[21] && !out[27]);
    assert!(out[22]);
}

/// "After applying Rule 1b, node 21 will be unmarked" (el(21) < el(22)),
/// while 27 stays because el(27) = el(22) and id(27) > id(22).
#[test]
fn section33_rule1b_unmarks_only_21() {
    let g = section33_high_cluster();
    let bm = NeighborBitmap::build(&g);
    let mut energy = vec![5u64; 28];
    energy[21] = 1;
    let key = PriorityKey::build(Policy::Energy, &g, Some(&energy));
    let out = rule1_pass(&g, &bm, &marking(&g), &key, None);
    assert!(!out[21]);
    assert!(out[22] && out[27]);
}

/// "After applying Rule 1b', both nodes 21 and 27 will be unmarked" —
/// the energy tie between 22 and 27 now falls through to node degree.
#[test]
fn section33_rule1b_prime_unmarks_21_and_27() {
    let g = section33_high_cluster();
    let bm = NeighborBitmap::build(&g);
    let mut energy = vec![5u64; 28];
    energy[21] = 1;
    let key = PriorityKey::build(Policy::EnergyDegree, &g, Some(&energy));
    let out = rule1_pass(&g, &bm, &marking(&g), &key, None);
    assert!(!out[21] && !out[27]);
    assert!(out[22]);
}

// ------------------------------------------------------- end-to-end traces

/// The full pipeline on the low cluster: each policy's final gateway set is
/// a valid CDS of the (connected) cluster.
#[test]
fn section33_full_pipeline_verifies_for_every_policy() {
    // Drop the isolated vertex 0 to get a connected graph.
    let g = section33_low_cluster();
    let keep: Vec<bool> = (0..12).map(|v| v != 0).collect();
    let (sub, _) = g.induced(&keep);
    let energy = vec![5u64; sub.n()];
    for policy in Policy::ALL {
        for cfg in [CdsConfig::policy(policy), CdsConfig::paper(policy)] {
            let trace = compute_cds_trace(&CdsInput::with_energy(&sub, &energy), &cfg);
            assert!(
                pacds::core::verify_cds(&sub, &trace.after_rule2).is_ok(),
                "{policy:?} {cfg:?}"
            );
        }
    }
}

// ---------------------------------------------- §4, broadcast reduction

/// Gateway-relayed broadcast on the §3.3 clusters: the paper's claim that
/// "only dominating nodes need to relay" cuts transmissions by well over
/// half at these densities. Blind flooding costs one transmission per
/// host; gateway flooding costs the source plus the reached gateways —
/// pinned exactly, with full coverage retained.
#[test]
fn section33_gateway_flood_reduction_is_pinned() {
    use pacds::routing::flood_cost;
    let low = {
        let g = section33_low_cluster();
        let keep: Vec<bool> = (0..12).map(|v| v != 0).collect();
        g.induced(&keep).0
    };
    let high = {
        let g = section33_high_cluster();
        let keep: Vec<bool> = (0..28).map(|v| v >= 20).collect();
        g.induced(&keep).0
    };
    // (graph, policy, blind transmissions, gateway transmissions): Id
    // keeps {4,9} / {22,27} as gateways, Degree keeps {2,4,9} / {22}.
    let cases: [(&Graph, Policy, usize, usize); 4] = [
        (&low, Policy::Id, 11, 3),
        (&low, Policy::Degree, 11, 4),
        (&high, Policy::Id, 8, 3),
        (&high, Policy::Degree, 8, 2),
    ];
    for (g, policy, blind_tx, gw_tx) in cases {
        let cds = pacds::core::compute_cds(&CdsInput::new(g), &CdsConfig::policy(policy));
        for src in 0..g.n() as pacds::graph::NodeId {
            let blind = flood_cost(g, src, None);
            let gateway = flood_cost(g, src, Some(&cds));
            assert_eq!(blind.transmissions, blind_tx, "{policy:?} src={src}");
            // A gateway source double-counts as source-transmitter and
            // relay, saving one more transmission.
            let expect = gw_tx - usize::from(cds[src as usize]);
            assert_eq!(gateway.transmissions, expect, "{policy:?} src={src}");
            assert_eq!(gateway.reached, blind.reached, "{policy:?} src={src}");
        }
        // ≥ 60% reduction — the bound the n = 10⁵ bench gates on.
        assert!((blind_tx - gw_tx) as f64 / blind_tx as f64 >= 0.60);
    }
}
