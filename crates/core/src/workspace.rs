//! The reusable CDS scratch arena — the zero-allocation hot path.
//!
//! Monte-Carlo sweeps recompute the gateway set thousands of times on
//! topologies of identical size. [`compute_cds`](crate::compute_cds) is
//! convenient but heap-allocates a fresh [`NeighborBitmap`], priority table,
//! and half a dozen masks per call. [`CdsWorkspace`] owns all of that scratch
//! once: every buffer is cleared and refilled in place, so after the first
//! call at a given size (the warm-up that establishes each buffer's
//! high-water capacity) a recomputation performs **zero heap allocations**.
//! `tests/zero_alloc.rs` at the workspace root pins this with a counting
//! global allocator.
//!
//! The workspace is generic over [`Neighbors`], so it runs identically on the
//! adjacency-list [`pacds_graph::Graph`] and the flat [`pacds_graph::CsrGraph`]
//! — `crates/core/tests/csr_equiv.rs` pins both to bit-identical outputs of
//! the allocating pipeline across all policies, semantics, and schedules.

use crate::pipeline::{Application, CdsConfig, CdsTrace, PruneSchedule};
use crate::priority::{EnergyLevel, PriorityKey};
use crate::rules::{
    rule1_pass_into, rule1_pass_sequential_into, rule2_pass_into, rule2_pass_sequential_into,
    RuleScratch,
};
use crate::verify::{verify_cds_scratch, CdsViolation};
use pacds_graph::{NeighborBitmap, Neighbors, NodeId, VertexMask};
use std::collections::VecDeque;

/// Owned scratch for repeated CDS computations (and verifications).
///
/// One instance serves any sequence of graphs; buffers grow to the largest
/// size seen and are reused thereafter. The result of the latest
/// [`CdsWorkspace::compute`] stays readable through the accessor methods
/// until the next call.
#[derive(Debug, Clone, Default)]
pub struct CdsWorkspace {
    bm: NeighborBitmap,
    key: PriorityKey,
    marked: VertexMask,
    after1: VertexMask,
    after2: VertexMask,
    tmp1: VertexMask,
    tmp2: VertexMask,
    scratch: RuleScratch,
    removed1: Vec<NodeId>,
    removed2: Vec<NodeId>,
    rounds: usize,
    seen: Vec<bool>,
    queue: VecDeque<NodeId>,
}

impl CdsWorkspace {
    /// An empty workspace. Buffers are allocated lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// A workspace pre-sized for graphs of `n` vertices, so even the first
    /// [`CdsWorkspace::compute`] at that size stays allocation-free for the
    /// mask and BFS buffers (the bitmap and edge-dependent scratch still
    /// warm up on first contact with a topology).
    pub fn with_capacity(n: usize) -> Self {
        let mut ws = Self::new();
        ws.marked.reserve(n);
        ws.after1.reserve(n);
        ws.after2.reserve(n);
        ws.tmp1.reserve(n);
        ws.tmp2.reserve(n);
        ws.removed1.reserve(n);
        ws.removed2.reserve(n);
        ws.seen.reserve(n);
        ws.queue.reserve(n);
        ws.scratch.reserve(n);
        ws
    }

    /// Computes the gateway set of `g` under `cfg`, reusing every internal
    /// buffer. Returns the final mask; the intermediate states remain
    /// readable via [`CdsWorkspace::marked`], [`CdsWorkspace::after_rule1`],
    /// [`CdsWorkspace::removed_by_rule1`] / [`removed_by_rule2`]
    /// (first-round removals, id order) and [`CdsWorkspace::rounds`].
    ///
    /// Bit-identical to [`crate::compute_cds`] on the same graph and
    /// configuration (in fact the allocating pipeline now runs through a
    /// fresh workspace internally).
    ///
    /// # Panics
    /// Panics if `cfg.policy.needs_energy()` and `energy` is `None` or of
    /// the wrong length (same contract as [`PriorityKey::build`]).
    pub fn compute<G: Neighbors + ?Sized>(
        &mut self,
        g: &G,
        energy: Option<&[EnergyLevel]>,
        cfg: &CdsConfig,
    ) -> &VertexMask {
        pacds_obs::inc(pacds_obs::Counter::WorkspaceComputes);
        crate::marking::marking_into(g, &mut self.marked);
        self.removed1.clear();
        self.removed2.clear();
        self.rounds = 0;
        if !cfg.policy.prunes() {
            self.after1.clone_from(&self.marked);
            self.after2.clone_from(&self.marked);
            return &self.after2;
        }

        {
            let _t = pacds_obs::phase_timer(pacds_obs::Phase::BitmapRebuild);
            self.bm.rebuild_into(g);
            pacds_obs::inc(pacds_obs::Counter::WorkspaceBitmapRebuilds);
        }
        {
            let _t = pacds_obs::phase_timer(pacds_obs::Phase::KeyRebuild);
            self.key.rebuild(cfg.policy, g, energy);
            pacds_obs::inc(pacds_obs::Counter::WorkspaceKeyRebuilds);
        }
        let semantics = cfg.rule2_semantics();

        match cfg.application {
            Application::Simultaneous => {
                rule1_pass_into(
                    g,
                    &self.bm,
                    &self.marked,
                    &self.key,
                    &mut self.after1,
                    Some(&mut self.removed1),
                );
                rule2_pass_into(
                    g,
                    &self.bm,
                    &self.after1,
                    &self.key,
                    semantics,
                    &mut self.scratch,
                    &mut self.after2,
                    Some(&mut self.removed2),
                );
            }
            Application::Sequential => {
                rule1_pass_sequential_into(
                    g,
                    &self.bm,
                    &self.marked,
                    &self.key,
                    &mut self.after1,
                    Some(&mut self.removed1),
                );
                rule2_pass_sequential_into(
                    g,
                    &self.bm,
                    &self.after1,
                    &self.key,
                    semantics,
                    &mut self.scratch,
                    &mut self.after2,
                    Some(&mut self.removed2),
                );
            }
        }
        self.rounds = 1;

        if cfg.schedule == PruneSchedule::Fixpoint {
            loop {
                match cfg.application {
                    Application::Simultaneous => {
                        rule1_pass_into(
                            g,
                            &self.bm,
                            &self.after2,
                            &self.key,
                            &mut self.tmp1,
                            None,
                        );
                        rule2_pass_into(
                            g,
                            &self.bm,
                            &self.tmp1,
                            &self.key,
                            semantics,
                            &mut self.scratch,
                            &mut self.tmp2,
                            None,
                        );
                    }
                    Application::Sequential => {
                        rule1_pass_sequential_into(
                            g,
                            &self.bm,
                            &self.after2,
                            &self.key,
                            &mut self.tmp1,
                            None,
                        );
                        rule2_pass_sequential_into(
                            g,
                            &self.bm,
                            &self.tmp1,
                            &self.key,
                            semantics,
                            &mut self.scratch,
                            &mut self.tmp2,
                            None,
                        );
                    }
                }
                self.rounds += 1;
                let changed = self.tmp2 != self.after2;
                std::mem::swap(&mut self.after1, &mut self.tmp1);
                if !changed {
                    break;
                }
                std::mem::swap(&mut self.after2, &mut self.tmp2);
            }
        }

        pacds_obs::add(pacds_obs::Counter::WorkspaceRounds, self.rounds as u64);
        &self.after2
    }

    /// The final gateway mask of the latest [`CdsWorkspace::compute`].
    #[inline]
    pub fn gateways(&self) -> &VertexMask {
        &self.after2
    }

    /// Number of gateways in the latest result.
    pub fn gateway_count(&self) -> usize {
        self.after2.iter().filter(|&&b| b).count()
    }

    /// Output of the bare marking process in the latest computation.
    #[inline]
    pub fn marked(&self) -> &VertexMask {
        &self.marked
    }

    /// Mask after the Rule 1 pass(es) of the latest computation.
    #[inline]
    pub fn after_rule1(&self) -> &VertexMask {
        &self.after1
    }

    /// Vertices removed by Rule 1 in the first round, in id order.
    #[inline]
    pub fn removed_by_rule1(&self) -> &[NodeId] {
        &self.removed1
    }

    /// Vertices removed by Rule 2 in the first round, in id order.
    #[inline]
    pub fn removed_by_rule2(&self) -> &[NodeId] {
        &self.removed2
    }

    /// Number of (Rule 1; Rule 2) rounds of the latest computation.
    #[inline]
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Verifies that `mask` is a connected dominating set of `g`, using the
    /// workspace's BFS scratch (allocation-free once warm). Same semantics
    /// as [`crate::verify_cds`], including the complete-graph special case.
    pub fn verify<G: Neighbors + ?Sized>(
        &mut self,
        g: &G,
        mask: &[bool],
    ) -> Result<(), CdsViolation> {
        verify_cds_scratch(g, mask, &mut self.seen, &mut self.queue)
    }

    /// Verifies the latest computed gateway set against `g`.
    pub fn verify_last<G: Neighbors + ?Sized>(&mut self, g: &G) -> Result<(), CdsViolation> {
        verify_cds_scratch(g, &self.after2, &mut self.seen, &mut self.queue)
    }

    /// Consumes the workspace, moving the latest computation's states into
    /// an owned [`CdsTrace`] without copying. This is how the allocating
    /// [`crate::compute_cds_trace`] is implemented.
    pub fn into_trace(self) -> CdsTrace {
        CdsTrace {
            marked: self.marked,
            after_rule1: self.after1,
            after_rule2: self.after2,
            removed_by_rule1: self.removed1,
            removed_by_rule2: self.removed2,
            rounds: self.rounds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{compute_cds_trace, CdsInput};
    use crate::priority::Policy;
    use crate::rules::Rule2Semantics;
    use pacds_graph::{gen, CsrGraph, Graph};
    use rand::SeedableRng;

    fn all_configs() -> Vec<CdsConfig> {
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

    #[test]
    fn workspace_matches_pipeline_on_random_graphs() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        let mut ws = CdsWorkspace::new();
        for n in [0usize, 1, 2, 12, 45, 90] {
            let g = gen::gnp(&mut rng, n, 0.18);
            let energy: Vec<u64> = (0..n as u64).map(|v| (v * 7 + 3) % 50).collect();
            for cfg in all_configs() {
                let trace = compute_cds_trace(&CdsInput::with_energy(&g, &energy), &cfg);
                let got = ws.compute(&g, Some(&energy), &cfg).clone();
                assert_eq!(got, trace.after_rule2, "n={n} cfg={cfg:?}");
                assert_eq!(ws.marked(), &trace.marked, "n={n} cfg={cfg:?}");
                assert_eq!(ws.after_rule1(), &trace.after_rule1, "n={n} cfg={cfg:?}");
                assert_eq!(ws.removed_by_rule1(), trace.removed_by_rule1, "n={n}");
                assert_eq!(ws.removed_by_rule2(), trace.removed_by_rule2, "n={n}");
                assert_eq!(ws.rounds(), trace.rounds, "n={n} cfg={cfg:?}");
            }
        }
    }

    #[test]
    fn workspace_runs_identically_on_csr() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(78);
        let mut ws = CdsWorkspace::new();
        let g = gen::gnp(&mut rng, 60, 0.12);
        let csr = CsrGraph::from(&g);
        let energy: Vec<u64> = (0..60u64).map(|v| v % 9).collect();
        for cfg in all_configs() {
            let on_graph = ws.compute(&g, Some(&energy), &cfg).clone();
            let on_csr = ws.compute(&csr, Some(&energy), &cfg).clone();
            assert_eq!(on_graph, on_csr, "cfg={cfg:?}");
        }
    }

    #[test]
    fn verify_last_accepts_computed_sets() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(79);
        let mut ws = CdsWorkspace::new();
        for _ in 0..15 {
            let g = gen::connected_gnp(&mut rng, 40, 0.12, 10);
            ws.compute(&g, None, &CdsConfig::policy(Policy::Id));
            assert_eq!(ws.verify_last(&g), Ok(()));
        }
    }

    #[test]
    fn verify_matches_verify_cds() {
        let g = gen::path(5);
        let mut ws = CdsWorkspace::new();
        assert_eq!(
            ws.verify(&g, &[false, true, false, true, false]),
            Err(CdsViolation::NotConnected)
        );
        assert_eq!(ws.verify(&g, &[false, true, true, true, false]), Ok(()));
        assert_eq!(ws.verify(&gen::complete(4), &[false; 4]), Ok(()));
    }

    #[test]
    fn into_trace_moves_the_latest_states() {
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 4)]);
        let mut ws = CdsWorkspace::new();
        ws.compute(&g, None, &CdsConfig::policy(Policy::Id));
        let trace = ws.into_trace();
        let reference = compute_cds_trace(&CdsInput::new(&g), &CdsConfig::policy(Policy::Id));
        assert_eq!(trace.after_rule2, reference.after_rule2);
        assert_eq!(trace.rounds, reference.rounds);
    }

    #[test]
    fn reuse_across_shrinking_and_growing_graphs() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(80);
        let mut ws = CdsWorkspace::with_capacity(64);
        for n in [64usize, 10, 50, 3, 64] {
            let g = gen::gnp(&mut rng, n, 0.2);
            let fresh = compute_cds_trace(&CdsInput::new(&g), &CdsConfig::fixpoint(Policy::Degree));
            let got = ws
                .compute(&g, None, &CdsConfig::fixpoint(Policy::Degree))
                .clone();
            assert_eq!(got, fresh.after_rule2, "n={n}");
            assert_eq!(got.len(), n);
        }
    }
}
