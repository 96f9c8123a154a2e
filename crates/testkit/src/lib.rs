//! Correctness layer for the PACDS workspace.
//!
//! The workspace ships several ways of computing the same gateway set
//! (the frozen seed baseline, the allocating pipeline, the zero-allocation
//! workspace over adjacency and CSR graphs, and the distributed engine in
//! its sequential and threaded forms; the sharded churn engine has its own
//! event-trace harness in [`churn`]). This crate pins all of them to a
//! single ground truth:
//!
//! * [`oracle`] — transparently-naive reference implementations written
//!   directly from the paper's prose: O(n·Δ²) marking, literal Rules 1/2
//!   under every priority variant (1/2, 1a/2a, 1b/2b, 1b'/2b'), an
//!   independent domination + connectivity verifier (union-find, no BFS),
//!   an O(n²) pairwise unit-disk constructor, and an exhaustive
//!   minimum-CDS search for small graphs.
//! * [`corpus`] — named adversarial topology families (paths, cycles,
//!   stars, cliques, bipartite graphs, grids, trees, bridge-joined
//!   cliques, disconnected graphs, co-located hosts, tied-degree and
//!   tied-energy configurations) plus seeded random unit-disk graphs at
//!   the paper's density range.
//! * [`harness`] — the differential conformance harness driving every
//!   production implementation over the corpus against the oracles.
//! * [`casefile`] — greedy shrinking and replayable JSON case files for
//!   failures.
//!
//! # Intentional non-equivalences
//!
//! Two divergences between implementations are *by design* and are
//! asserted CDS-invariant rather than bit-identical:
//!
//! 1. **Simultaneous vs sequential application** of the rules produce
//!    different masks on the same topology (the sequential sweep sees
//!    earlier removals). Under safe semantics both must still verify as
//!    connected dominating sets; the harness checks exactly that.
//! 2. **`Rule2Semantics::CaseAnalysis` under simultaneous application**
//!    (the paper-literal extended Rule 2) is unsound on a small fraction
//!    of topologies — see `rules::tests::paper_literal_rule2_counterexample`
//!    in `pacds-core`. Every implementation must still agree bit-for-bit
//!    on *which* (possibly invalid) mask the configuration produces, and
//!    the production and oracle verifiers must agree on its verdict.

pub mod casefile;
pub mod churn;
pub mod corpus;
pub mod harness;
pub mod oracle;

pub use casefile::{emit_case, shrink_case, CaseFile};
pub use churn::{
    corpus_traces, derived_grid_traces, emit_trace, first_divergence, shardable_matrix,
    shrink_trace, ChurnReport, ChurnTrace, TraceArena, TraceEvent,
};
pub use corpus::{named_families, random_unit_disk_cases, TopoCase};
pub use harness::{run_impl, ConformanceReport, ImplKind};
