//! Core contribution of the paper: the Wu-Li **marking process** and the
//! **selective-removal rules** that shrink the resulting connected
//! dominating set (CDS), including the power-aware variants this paper
//! introduces.
//!
//! # Background
//!
//! A *dominating set* of `G = (V, E)` is a subset `V' ⊆ V` such that every
//! vertex is in `V'` or adjacent to a vertex in `V'`. Dominating-set-based
//! routing confines route search to the subgraph induced by a *connected*
//! dominating set (the *gateway* hosts).
//!
//! The marking process is fully localized: a host marks itself iff it has
//! two neighbours that are not directly connected. The marked set is a CDS
//! of any connected, non-complete graph (Properties 1–2 of the paper), and
//! it preserves shortest paths (Property 3).
//!
//! The marked set is usually far from minimal, so nodes apply
//! *selective-removal rules* using only 2-hop information:
//!
//! * **Rule 1** — if `N[v] ⊆ N[u]` for marked `v, u`, the lower-priority of
//!   the two unmarks itself.
//! * **Rule 2** — if `N(v) ⊆ N(u) ∪ N(w)` for marked neighbours `u, w` of
//!   marked `v`, then `v` unmarks itself subject to a priority test.
//!
//! Priorities are what this paper varies:
//!
//! | Policy ([`Policy`]) | Rule pair | Priority order |
//! |---|---|---|
//! | `Id` | 1, 2 | node id |
//! | `Degree` ("ND") | 1a, 2a | node degree, then id |
//! | `Energy` ("EL1") | 1b, 2b | energy level, then id |
//! | `EnergyDegree` ("EL2") | 1b', 2b' | energy level, then degree, then id |
//!
//! The energy-based policies deliberately rotate gateway duty onto
//! higher-energy hosts, extending the time until the first host dies.
//!
//! # Quick example
//!
//! ```
//! use pacds_graph::Graph;
//! use pacds_core::{compute_cds, CdsConfig, CdsInput, Policy};
//!
//! // Figure 1 of the paper: u=0, v=1, w=2, x=3, y=4.
//! let g = Graph::from_edges(5, &[(0, 1), (0, 4), (1, 2), (1, 4), (2, 3)]);
//! let cds = compute_cds(&CdsInput::new(&g), &CdsConfig::policy(Policy::Id));
//! assert_eq!(pacds_graph::mask_to_vec(&cds), vec![1, 2]); // v and w
//! ```

pub mod daiwu;
pub mod explain;
pub mod marking;
pub mod pipeline;
pub mod priority;
pub mod rules;
pub mod verify;
pub mod workspace;

/// The bit-parallel scan kernels behind every coverage predicate
/// (re-exported from `pacds-graph` so rule-engine callers see one module):
/// the whole-graph workspace and the sharded tile solver both decide
/// `N[v] ⊆ N[u]` / `N(v) ⊆ N(u) ∪ N(w)` through these chunked
/// AND/ANDN scans, and the testkit bit-identity harness covers them on
/// every corpus entry as a consequence.
pub use pacds_graph::kernels;

pub use daiwu::{compute_cds_daiwu, rule_k_pass};
pub use explain::{explain, Explanation};
pub use marking::{marking, marking_into};
pub use pipeline::{
    compute_cds, compute_cds_trace, Application, CdsConfig, CdsInput, CdsTrace, PruneSchedule,
};
pub use priority::{EnergyLevel, Policy, PriorityKey};
pub use rules::{rule1_pass, rule2_pass, Rule2Semantics, RuleScratch};
pub use verify::{
    is_connected_dominating_set, is_dominating_set, verify_cds, verify_cds_scratch, CdsViolation,
};
pub use workspace::CdsWorkspace;
