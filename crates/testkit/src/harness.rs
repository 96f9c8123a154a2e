//! The differential conformance harness.
//!
//! [`run_impl`] drives any production implementation on a `(graph,
//! energy, config)` triple; [`ConformanceReport::check_case`] runs every
//! applicable implementation against [`crate::oracle::compute_cds_oracle`],
//! asserts bit-identity, cross-checks the production verifier against the
//! independent oracle verifier, and — on mismatch — shrinks the topology
//! and emits a replayable JSON case file instead of panicking on the
//! full-size instance. An implementation that panics fails its case the
//! same way ([`run_impl_caught`]): the sweep goes on, and the panic
//! message is kept in the case file.
//!
//! Bit-identity is asserted *per configuration*: different configurations
//! (e.g. simultaneous vs sequential application) intentionally produce
//! different masks — that non-equivalence is covered by
//! [`ConformanceReport::check_cross_application`], which requires both
//! results to be valid connected dominating sets rather than equal.

use crate::casefile::{emit_case, shrink_case, CaseFile};
use crate::corpus::TopoCase;
use crate::oracle;
use pacds_core::{
    compute_cds, verify_cds, Application, CdsConfig, CdsInput, Policy, PruneSchedule,
    Rule2Semantics,
};
use pacds_distributed::{run_distributed, Schedule};
use pacds_graph::{Graph, VertexMask};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

/// Every production implementation the harness can drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImplKind {
    /// The frozen v0 pipeline (`pacds_bench::seed_baseline`).
    SeedBaseline,
    /// The pipeline (`pacds_core::compute_cds`, which runs a fresh
    /// `CdsWorkspace`).
    Pipeline,
    /// `pacds_distributed::run_distributed` under [`Schedule::Fifo`].
    DistributedFifo,
    /// `pacds_distributed::run_distributed` under
    /// [`Schedule::Shuffled`], seeded with the instance's edge count so a
    /// case file replays the same delivery order.
    DistributedShuffled,
}

impl ImplKind {
    /// Every implementation, cheapest first.
    pub const ALL: [ImplKind; 4] = [
        ImplKind::SeedBaseline,
        ImplKind::Pipeline,
        ImplKind::DistributedFifo,
        ImplKind::DistributedShuffled,
    ];

    /// Stable name (used in case files and failure messages).
    pub fn name(&self) -> &'static str {
        match self {
            ImplKind::SeedBaseline => "seed_baseline",
            ImplKind::Pipeline => "pipeline",
            ImplKind::DistributedFifo => "distributed_fifo",
            ImplKind::DistributedShuffled => "distributed_shuffled",
        }
    }

    /// Whether this implementation supports `cfg`. The seed baseline and
    /// the distributed protocol implement only the paper's simultaneous
    /// single-pass procedure (they panic otherwise, by contract).
    pub fn applicable(&self, cfg: &CdsConfig) -> bool {
        match self {
            ImplKind::Pipeline => true,
            ImplKind::SeedBaseline | ImplKind::DistributedFifo | ImplKind::DistributedShuffled => {
                cfg.application == Application::Simultaneous
                    && cfg.schedule == PruneSchedule::SinglePass
            }
        }
    }
}

/// Runs one production implementation on one instance.
pub fn run_impl(kind: ImplKind, g: &Graph, energy: Option<&[u64]>, cfg: &CdsConfig) -> VertexMask {
    match kind {
        ImplKind::SeedBaseline => pacds_bench::seed_baseline::compute_cds_seed(g, energy, cfg),
        ImplKind::Pipeline => {
            let input = match energy {
                Some(e) => CdsInput::with_energy(g, e),
                None => CdsInput::new(g),
            };
            compute_cds(&input, cfg)
        }
        ImplKind::DistributedFifo => run_distributed(g, energy, cfg, Schedule::Fifo).gateways,
        ImplKind::DistributedShuffled => {
            run_distributed(g, energy, cfg, Schedule::Shuffled(g.m() as u64)).gateways
        }
    }
}

/// [`run_impl`] with a panic caught and returned as its message.
pub fn run_impl_caught(
    kind: ImplKind,
    g: &Graph,
    energy: Option<&[u64]>,
    cfg: &CdsConfig,
) -> Result<VertexMask, String> {
    catch_unwind(AssertUnwindSafe(|| run_impl(kind, g, energy, cfg))).map_err(|payload| {
        payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string())
    })
}

/// Runs `kind` on one instance against the oracle's `expected` mask. On a
/// mismatch or a panic, shrinks the instance while it still fails (either
/// way), emits the case file under `name` and returns its path.
pub fn check_impl(
    name: &str,
    kind: ImplKind,
    g: &Graph,
    energy: &[u64],
    cfg: &CdsConfig,
    expected: &[bool],
) -> Option<PathBuf> {
    let got = run_impl_caught(kind, g, Some(energy), cfg);
    if got.as_deref() == Ok(expected) {
        return None;
    }
    let mut file = CaseFile::capture(
        name,
        kind,
        g,
        energy,
        cfg,
        expected,
        got.as_deref().unwrap_or(&[]),
    );
    file.panic = got.err();
    let shrunk = shrink_case(file, |g2, e2| {
        run_impl_caught(kind, g2, Some(e2), cfg)
            != Ok(oracle::compute_cds_oracle(g2, Some(e2), cfg))
    });
    Some(emit_case(&shrunk))
}

/// Accumulates conformance failures; panics with the case-file paths at
/// [`ConformanceReport::finish`] so one run reports *all* mismatches.
#[derive(Debug, Default)]
pub struct ConformanceReport {
    /// Paths of emitted shrunk case files.
    pub failures: Vec<PathBuf>,
    /// Instances checked (for the final summary line).
    pub checked: usize,
}

impl ConformanceReport {
    /// Empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs `impls` (those applicable to `cfg`) on `case` and asserts
    /// bit-identity with the oracle; on mismatch, shrinks and emits a case
    /// file. Also cross-checks the production verifier against the oracle
    /// verifier on the oracle mask, and — for safe configurations on
    /// connected topologies — asserts the result is a valid CDS.
    pub fn check_case(&mut self, case: &TopoCase, cfg: &CdsConfig, impls: &[ImplKind]) {
        let g = &case.graph;
        let energy = Some(case.energy.as_slice());
        let expected = oracle::compute_cds_oracle(g, energy, cfg);

        // The two verifiers must agree on the verdict for this mask,
        // whatever it is (CaseAnalysis+Simultaneous may legitimately
        // produce an invalid set — the documented unsoundness).
        let oracle_verdict = oracle::verify_oracle(g, &expected);
        let prod_verdict = verify_cds(g, &expected);
        assert_eq!(
            oracle_verdict.is_ok(),
            prod_verdict.is_ok(),
            "verifiers disagree on {} under {cfg:?}: oracle={oracle_verdict:?} production={prod_verdict:?}",
            case.name
        );

        let safe = cfg.rule2_semantics() == Rule2Semantics::MinOfThree
            || cfg.application == Application::Sequential
            || !cfg.policy.prunes();
        if safe && case.connected {
            assert_eq!(
                oracle_verdict,
                Ok(()),
                "safe config {cfg:?} produced an invalid CDS on {}",
                case.name
            );
        }

        for &kind in impls {
            if !kind.applicable(cfg) {
                continue;
            }
            self.checked += 1;
            let failure = check_impl(&case.name, kind, g, &case.energy, cfg, &expected);
            self.failures.extend(failure);
        }
    }

    /// Differential check for an implementation the harness cannot name —
    /// anything that can be called as a function from `(graph, energy,
    /// config)` to a gateway mask, such as the serving layer's full wire
    /// round-trip. Asserts bit-identity with the oracle; on mismatch the
    /// topology is shrunk (re-running the same closure) and a case file is
    /// emitted under `label`.
    pub fn check_external<F>(&mut self, case: &TopoCase, cfg: &CdsConfig, label: &str, mut f: F)
    where
        F: FnMut(&Graph, &[u64], &CdsConfig) -> VertexMask,
    {
        let g = &case.graph;
        let energy = case.energy.as_slice();
        let expected = oracle::compute_cds_oracle(g, Some(energy), cfg);
        self.checked += 1;
        let got = f(g, energy, cfg);
        if got != expected {
            let file = CaseFile::capture_named(&case.name, label, g, energy, cfg, &expected, &got);
            let shrunk = shrink_case(file, |g2, e2| {
                f(g2, e2, cfg) != oracle::compute_cds_oracle(g2, Some(e2), cfg)
            });
            self.failures.push(emit_case(&shrunk));
        }
    }

    /// The documented simultaneous-vs-sequential non-equivalence: the two
    /// applications may return different masks, but under safe semantics
    /// on a connected topology *both* must be valid connected dominating
    /// sets. Returns whether the masks differed (so callers can assert the
    /// divergence is actually exercised by the corpus).
    pub fn check_cross_application(&mut self, case: &TopoCase, policy: Policy) -> bool {
        if !case.connected {
            return false;
        }
        let energy = Some(case.energy.as_slice());
        let sim = CdsConfig::policy(policy);
        let seq = CdsConfig {
            application: Application::Sequential,
            ..sim
        };
        let a = oracle::compute_cds_oracle(&case.graph, energy, &sim);
        let b = oracle::compute_cds_oracle(&case.graph, energy, &seq);
        for (label, mask) in [("simultaneous", &a), ("sequential", &b)] {
            assert_eq!(
                oracle::verify_oracle(&case.graph, mask),
                Ok(()),
                "{label} application invalid on {} under {policy:?}",
                case.name
            );
        }
        self.checked += 2;
        a != b
    }

    /// Panics if any mismatch was recorded, listing every emitted case
    /// file path.
    pub fn finish(self) {
        assert!(
            self.failures.is_empty(),
            "{} conformance mismatch(es); shrunk replayable case files:\n{}",
            self.failures.len(),
            self.failures
                .iter()
                .map(|p| format!("  {}", p.display()))
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}

/// The full configuration matrix: every policy × Rule 2 semantics ×
/// application × schedule (40 configurations; `Id` rows collapse the
/// semantics axis by contract).
pub fn full_config_matrix() -> Vec<CdsConfig> {
    let mut cfgs = Vec::new();
    for policy in Policy::ALL {
        for schedule in [PruneSchedule::SinglePass, PruneSchedule::Fixpoint] {
            for rule2 in [Rule2Semantics::MinOfThree, Rule2Semantics::CaseAnalysis] {
                for application in [Application::Simultaneous, Application::Sequential] {
                    cfgs.push(CdsConfig {
                        policy,
                        schedule,
                        rule2,
                        application,
                    });
                }
            }
        }
    }
    cfgs
}

#[cfg(test)]
mod tests {
    use super::*;
    use pacds_graph::gen;

    #[test]
    fn applicability_matches_the_panics() {
        let seq = CdsConfig::sequential(Policy::Id);
        let fix = CdsConfig::fixpoint(Policy::Id);
        let single = CdsConfig::policy(Policy::Id);
        for kind in ImplKind::ALL {
            assert!(kind.applicable(&single), "{kind:?}");
        }
        for kind in [
            ImplKind::SeedBaseline,
            ImplKind::DistributedFifo,
            ImplKind::DistributedShuffled,
        ] {
            assert!(!kind.applicable(&seq));
            assert!(!kind.applicable(&fix));
        }
    }

    #[test]
    fn run_impl_smoke_on_figure_1() {
        let g = pacds_graph::Graph::from_edges(5, &[(0, 1), (0, 4), (1, 2), (1, 4), (2, 3)]);
        let cfg = CdsConfig::policy(Policy::Id);
        let expected = oracle::compute_cds_oracle(&g, None, &cfg);
        assert_eq!(pacds_graph::mask_to_vec(&expected), vec![1, 2]);
        for kind in ImplKind::ALL {
            assert_eq!(run_impl(kind, &g, None, &cfg), expected, "{kind:?}");
        }
    }

    #[test]
    fn matrix_covers_every_axis() {
        let m = full_config_matrix();
        assert_eq!(m.len(), 40);
        assert!(m.iter().any(|c| c.schedule == PruneSchedule::Fixpoint));
        assert!(m.iter().any(|c| c.application == Application::Sequential));
        let _ = gen::path(2);
    }
}
