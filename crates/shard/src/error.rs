//! Typed rejection of configurations the sharded engine cannot run.

use pacds_core::{Application, CdsConfig, PruneSchedule, Rule2Semantics};
use std::fmt;

/// Why a [`CdsConfig`] is not shardable.
///
/// The sharded engine solves each tile against a bounded halo and merges
/// by ownership; that is only exact when every removal decision is a pure
/// function of a node's bounded neighbourhood under a *snapshot* of the
/// marked set. Configurations that thread global visit order or unbounded
/// rounds through the decisions are rejected up front.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnshardableReason {
    /// Sequential application visits vertices in ascending global id and
    /// lets later decisions observe earlier removals — a chain that can
    /// span the whole graph. Global order is not shardable.
    SequentialApplication,
    /// The fixpoint schedule iterates (Rule 1; Rule 2) until stable; each
    /// extra round widens the dependency radius by another two hops, so no
    /// fixed halo bounds it.
    FixpointSchedule,
    /// Case-analysis Rule 2 (the paper's literal extended rule) compares
    /// priorities across a pair chosen by a case split whose outcome is not
    /// a pure min-of-three; its decisions are not stable under the halo
    /// truncation argument, so only min-of-three semantics shard.
    CaseAnalysisRule2,
}

impl UnshardableReason {
    /// Stable machine-readable label (CLI/serve JSON output).
    pub fn label(self) -> &'static str {
        match self {
            Self::SequentialApplication => "sequential_application",
            Self::FixpointSchedule => "fixpoint_schedule",
            Self::CaseAnalysisRule2 => "case_analysis_rule2",
        }
    }
}

impl fmt::Display for UnshardableReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::SequentialApplication => {
                write!(
                    f,
                    "sequential application: global visit order is not shardable"
                )
            }
            Self::FixpointSchedule => {
                write!(
                    f,
                    "fixpoint schedule: unbounded rounds exceed any fixed halo"
                )
            }
            Self::CaseAnalysisRule2 => {
                write!(f, "case-analysis Rule 2: not stable under halo truncation")
            }
        }
    }
}

/// Errors returned by the sharded engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardError {
    /// The configuration's semantics cannot be sharded at any halo width.
    Unshardable(UnshardableReason),
    /// The requested halo is below the proven minimum
    /// ([`crate::REQUIRED_HALO`]); a narrower halo provably breaks
    /// bit-identity (see the negative corridor proptest).
    HaloTooSmall {
        /// The halo that was requested.
        halo: usize,
        /// The minimum exact halo.
        required: usize,
    },
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Unshardable(r) => write!(f, "configuration is not shardable: {r}"),
            Self::HaloTooSmall { halo, required } => write!(
                f,
                "halo of {halo} hop(s) is below the exactness minimum of {required}"
            ),
        }
    }
}

impl std::error::Error for ShardError {}

/// Errors returned by the churn engine. Every variant is *recoverable*:
/// a rejected event leaves the engine state untouched (validation happens
/// before any mutation), so a caller can drop the bad event and keep
/// streaming.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChurnError {
    /// The engine shape or configuration is invalid — the same typed
    /// rejections as the batch engine ([`ShardError::Unshardable`],
    /// [`ShardError::HaloTooSmall`]), mirrored at open time.
    Shard(ShardError),
    /// The event names a node id the graph has never had.
    UnknownNode {
        /// The offending id.
        node: u32,
        /// The engine's current node count.
        n: usize,
    },
    /// The event targets a node that has already been killed (double
    /// kill, moving or draining a dead node).
    DeadNode {
        /// The dead node's id.
        node: u32,
    },
    /// The event places a node outside the engine's fixed tile domain;
    /// accepting it would require re-partitioning, so it is rejected
    /// instead (the domain is the open-time bounds expanded to the
    /// initial points' bounding box).
    OutOfBounds {
        /// The rejected coordinates.
        x: f64,
        /// See `x`.
        y: f64,
    },
}

impl ChurnError {
    /// Stable machine-readable label (CLI/serve JSON output).
    pub fn label(self) -> &'static str {
        match self {
            Self::Shard(ShardError::Unshardable(_)) => "unshardable",
            Self::Shard(ShardError::HaloTooSmall { .. }) => "halo_too_small",
            Self::UnknownNode { .. } => "unknown_node",
            Self::DeadNode { .. } => "dead_node",
            Self::OutOfBounds { .. } => "out_of_bounds",
        }
    }
}

impl From<ShardError> for ChurnError {
    fn from(e: ShardError) -> Self {
        Self::Shard(e)
    }
}

impl fmt::Display for ChurnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Shard(e) => write!(f, "{e}"),
            Self::UnknownNode { node, n } => {
                write!(f, "unknown node {node} (graph has {n} node slots)")
            }
            Self::DeadNode { node } => write!(f, "node {node} is dead"),
            Self::OutOfBounds { x, y } => {
                write!(f, "({x}, {y}) is outside the engine's fixed tile domain")
            }
        }
    }
}

impl std::error::Error for ChurnError {}

/// Whether `cfg` can run on the sharded engine (at a sufficient halo).
///
/// Shardable configurations are exactly: simultaneous application,
/// single-pass schedule, and an *effective* Rule 2 semantics of
/// min-of-three (which includes every `Policy::Id` configuration, where
/// the paper's Rule 2 already is min-of-three, and `Policy::NoPruning`,
/// where no rule pass runs at all). Everything else gets a typed error.
pub fn check_shardable(cfg: &CdsConfig) -> Result<(), ShardError> {
    if cfg.application == Application::Sequential {
        return Err(ShardError::Unshardable(
            UnshardableReason::SequentialApplication,
        ));
    }
    if cfg.schedule == PruneSchedule::Fixpoint {
        return Err(ShardError::Unshardable(UnshardableReason::FixpointSchedule));
    }
    if cfg.policy.prunes() && cfg.rule2_semantics() == Rule2Semantics::CaseAnalysis {
        return Err(ShardError::Unshardable(
            UnshardableReason::CaseAnalysisRule2,
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pacds_core::Policy;

    #[test]
    fn the_config_matrix_splits_seven_to_thirty_three() {
        let mut ok = 0;
        let mut rejected = 0;
        for policy in Policy::ALL {
            for schedule in [PruneSchedule::SinglePass, PruneSchedule::Fixpoint] {
                for rule2 in [Rule2Semantics::MinOfThree, Rule2Semantics::CaseAnalysis] {
                    for application in [Application::Simultaneous, Application::Sequential] {
                        let cfg = CdsConfig {
                            policy,
                            schedule,
                            rule2,
                            application,
                        };
                        match check_shardable(&cfg) {
                            Ok(()) => ok += 1,
                            Err(ShardError::Unshardable(_)) => rejected += 1,
                            Err(e) => panic!("unexpected error {e}"),
                        }
                    }
                }
            }
        }
        assert_eq!((ok, rejected), (7, 33));
    }

    #[test]
    fn rejection_reasons_are_specific() {
        let seq = CdsConfig::sequential(Policy::Id);
        assert_eq!(
            check_shardable(&seq),
            Err(ShardError::Unshardable(
                UnshardableReason::SequentialApplication
            ))
        );
        let fix = CdsConfig::fixpoint(Policy::Degree);
        assert_eq!(
            check_shardable(&fix),
            Err(ShardError::Unshardable(UnshardableReason::FixpointSchedule))
        );
        let paper = CdsConfig::paper(Policy::Degree);
        assert_eq!(
            check_shardable(&paper),
            Err(ShardError::Unshardable(
                UnshardableReason::CaseAnalysisRule2
            ))
        );
        // Id forces min-of-three, so the paper config of Id shards.
        assert_eq!(check_shardable(&CdsConfig::paper(Policy::Id)), Ok(()));
        // NoPruning never runs a rule pass: both rule2 values shard.
        assert_eq!(
            check_shardable(&CdsConfig::paper(Policy::NoPruning)),
            Ok(())
        );
    }
}
