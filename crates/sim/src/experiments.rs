//! The paper's two simulation studies, packaged as reusable experiments.
//!
//! * [`cds_size_experiment`] — Figure 10: average gateway count vs N for
//!   each policy.
//! * [`lifetime_experiment`] — Figures 11–13: average lifetime (update
//!   intervals until the first death) vs N for each policy under a drain
//!   model.

use crate::config::SimConfig;
use crate::montecarlo::run_trials;
use crate::network::NetworkState;
use crate::simulation::Simulation;
use crate::stats::Summary;
use pacds_core::Policy;
use pacds_energy::DrainModel;
use serde::Serialize;

/// One curve of a figure: a policy's measurements across network sizes.
#[derive(Debug, Clone, Serialize)]
pub struct Series {
    /// Legend label ("NR", "ID", "ND", "EL1", "EL2").
    pub label: String,
    /// `(N, summary)` per swept network size.
    pub points: Vec<(usize, Summary)>,
}

/// Shared sweep parameters.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Network sizes to sweep (the paper: 3..=100).
    pub sizes: Vec<usize>,
    /// Independent trials per (policy, size) point.
    pub trials: usize,
    /// Master seed.
    pub seed: u64,
    /// Policies to compare (defaults to the paper's five).
    pub policies: Vec<Policy>,
}

impl Default for SweepConfig {
    fn default() -> Self {
        Self {
            sizes: (1..=10).map(|k| k * 10).collect(),
            trials: 20,
            seed: 0xC0FFEE,
            policies: Policy::ALL.to_vec(),
        }
    }
}

/// Figure 10: average number of gateway hosts per policy and size.
///
/// Follows the paper's procedure: the gateway count is recorded at *every
/// update interval of a dynamic run* (step 2 of the simulation loop), so
/// the energy-aware policies are measured across the energy spread that
/// develops over time — on a fresh network with uniform batteries EL1/EL2
/// would degenerate to ID/ND. Each trial contributes its per-interval
/// average.
pub fn cds_size_experiment(sweep: &SweepConfig) -> Vec<Series> {
    sweep
        .policies
        .iter()
        .map(|&policy| Series {
            label: policy.label().to_string(),
            points: sweep
                .sizes
                .iter()
                .map(|&n| {
                    let cfg = SimConfig::paper(n, policy, DrainModel::LinearInN);
                    let counts = run_trials(
                        sweep.seed ^ (n as u64) << 8 ^ policy_tag(policy),
                        sweep.trials,
                        |_, rng| {
                            let sim = Simulation::new(cfg, rng).without_verification();
                            sim.run_lifetime(rng).mean_gateways
                        },
                    );
                    (n, Summary::from_slice(&counts))
                })
                .collect(),
        })
        .collect()
}

/// Figures 11–13: average lifetime per policy and size under `model`.
pub fn lifetime_experiment(sweep: &SweepConfig, model: DrainModel) -> Vec<Series> {
    sweep
        .policies
        .iter()
        .map(|&policy| Series {
            label: policy.label().to_string(),
            points: sweep
                .sizes
                .iter()
                .map(|&n| {
                    let cfg = SimConfig::paper(n, policy, model);
                    let lives = run_trials(
                        sweep.seed ^ (n as u64) << 8 ^ policy_tag(policy),
                        sweep.trials,
                        |_, rng| {
                            let sim = Simulation::new(cfg, rng).without_verification();
                            f64::from(sim.run_lifetime(rng).intervals)
                        },
                    );
                    (n, Summary::from_slice(&lives))
                })
                .collect(),
        })
        .collect()
}

/// Measures how often the paper-literal Rule 2 semantics breaks domination
/// or connectivity (the soundness-gap experiment documented in DESIGN.md).
/// Returns `(intervals_checked, violating_intervals)` per policy.
pub fn violation_rate_experiment(
    sweep: &SweepConfig,
    model: DrainModel,
) -> Vec<(Policy, u64, u64)> {
    sweep
        .policies
        .iter()
        .filter(|p| p.prunes())
        .map(|&policy| {
            let mut total = 0u64;
            let mut bad = 0u64;
            for &n in &sweep.sizes {
                let mut cfg = SimConfig::paper(n, policy, model);
                // The violation question only exists for the paper-literal
                // case-analysis semantics; the safe default never violates.
                cfg.cds = pacds_core::CdsConfig::paper(policy);
                let outcomes = run_trials(
                    sweep.seed ^ (n as u64) << 8 ^ policy_tag(policy),
                    sweep.trials,
                    |_, rng| {
                        let sim = Simulation::new(cfg, rng);
                        let out = sim.run_lifetime(rng);
                        (
                            u64::from(out.intervals - out.disconnected_intervals),
                            u64::from(out.violations),
                        )
                    },
                );
                for (checked, violations) in outcomes {
                    total += checked;
                    bad += violations;
                }
            }
            (policy, total, bad)
        })
        .collect()
}

/// Locality experiment: the paper argues the marking process only needs
/// *local* updates when hosts move. This measures, per update interval, the
/// fraction of hosts whose gateway status actually changed — low churn is
/// what makes the localized maintenance cheap.
pub fn locality_experiment(sweep: &SweepConfig) -> Vec<Series> {
    sweep
        .policies
        .iter()
        .map(|&policy| Series {
            label: policy.label().to_string(),
            points: sweep
                .sizes
                .iter()
                .map(|&n| {
                    let cfg = SimConfig::paper(n, policy, DrainModel::LinearInN);
                    let churns = run_trials(
                        sweep.seed ^ (n as u64) << 8 ^ policy_tag(policy),
                        sweep.trials,
                        |_, rng| {
                            let mut state = NetworkState::init(cfg, rng);
                            let mut prev = state.compute_gateways();
                            let mut cur = pacds_graph::VertexMask::new();
                            let mut changed = 0usize;
                            let intervals = 30u32;
                            for _ in 0..intervals {
                                state.advance_topology(rng);
                                state.compute_gateways_into(&mut cur);
                                changed += prev.iter().zip(&cur).filter(|(a, b)| a != b).count();
                                std::mem::swap(&mut prev, &mut cur);
                            }
                            changed as f64 / (f64::from(intervals) * n as f64)
                        },
                    );
                    (n, Summary::from_slice(&churns))
                })
                .collect(),
        })
        .collect()
}

/// Quantum (energy-level coarseness) ablation: runs the Figure-10 and
/// Figure-12 measurements at one network size across level quanta.
/// Returns `(quantum, policy_label, mean_gateways, mean_lifetime)` rows.
pub fn quantum_ablation(
    n: usize,
    trials: usize,
    seed: u64,
    quanta: &[f64],
) -> Vec<(f64, &'static str, f64, f64)> {
    let mut rows = Vec::new();
    for &q in quanta {
        for policy in [Policy::Energy, Policy::EnergyDegree] {
            let mut cfg = SimConfig::paper(n, policy, DrainModel::LinearInN);
            cfg.energy.quantum = q;
            let out = run_trials(seed ^ policy_tag(policy), trials, |_, rng| {
                let sim = Simulation::new(cfg, rng).without_verification();
                let o = sim.run_lifetime(rng);
                (o.mean_gateways, f64::from(o.intervals))
            });
            let gw: Vec<f64> = out.iter().map(|o| o.0).collect();
            let life: Vec<f64> = out.iter().map(|o| o.1).collect();
            rows.push((
                q,
                policy.label(),
                Summary::from_slice(&gw).mean,
                Summary::from_slice(&life).mean,
            ));
        }
    }
    rows
}

fn policy_tag(policy: Policy) -> u64 {
    match policy {
        Policy::NoPruning => 1,
        Policy::Id => 2,
        Policy::Degree => 3,
        Policy::Energy => 4,
        Policy::EnergyDegree => 5,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_sweep() -> SweepConfig {
        SweepConfig {
            sizes: vec![20, 40],
            trials: 5,
            seed: 7,
            policies: Policy::ALL.to_vec(),
        }
    }

    #[test]
    fn cds_size_series_have_expected_shape() {
        let series = cds_size_experiment(&tiny_sweep());
        assert_eq!(series.len(), 5);
        for s in &series {
            assert_eq!(s.points.len(), 2);
            for (_, summary) in &s.points {
                assert_eq!(summary.n, 5);
                assert!(summary.mean >= 0.0);
            }
        }
        // NR must be the largest set on average at every size.
        let nr = &series[0];
        assert_eq!(nr.label, "NR");
        for other in &series[1..] {
            for (p_nr, p_o) in nr.points.iter().zip(&other.points) {
                assert!(
                    p_nr.1.mean >= p_o.1.mean - 1e-9,
                    "{} exceeded NR at n={}",
                    other.label,
                    p_o.0
                );
            }
        }
    }

    #[test]
    fn lifetime_series_are_positive_and_bounded() {
        let series = lifetime_experiment(&tiny_sweep(), DrainModel::LinearInN);
        for s in &series {
            for (_, summary) in &s.points {
                assert!(summary.mean >= 1.0);
                assert!(summary.max <= 100.0, "d' = 1 bounds life at 100");
            }
        }
    }

    #[test]
    fn locality_churn_is_a_small_fraction() {
        let series = locality_experiment(&SweepConfig {
            sizes: vec![40],
            trials: 4,
            seed: 3,
            policies: vec![Policy::Id, Policy::Energy],
        });
        for s in &series {
            let (_, summary) = &s.points[0];
            assert!(
                summary.mean > 0.0 && summary.mean < 0.5,
                "{}: churn {} out of expected range",
                s.label,
                summary.mean
            );
        }
    }

    #[test]
    fn quantum_ablation_produces_rows() {
        let rows = quantum_ablation(30, 3, 9, &[1.0, 25.0]);
        assert_eq!(rows.len(), 4);
        for (q, label, gw, life) in rows {
            assert!(q > 0.0);
            assert!(!label.is_empty());
            assert!(gw >= 1.0);
            assert!(life >= 1.0);
        }
    }

    #[test]
    fn literal_rules_violate_often_id_never() {
        // Quantifies the documented soundness gap: the original ID rules
        // (min-of-three) never violate; the literal simultaneous
        // case-analysis rules violate on a *large* fraction of intervals
        // at paper densities — which is why the safe semantics is the
        // default for reproduction runs.
        let rates = violation_rate_experiment(&tiny_sweep(), DrainModel::LinearInN);
        for (policy, total, bad) in rates {
            assert!(total > 0);
            let rate = bad as f64 / total as f64;
            match policy {
                Policy::Id => assert_eq!(bad, 0, "ID rules are provably safe"),
                _ => assert!(
                    rate > 0.01,
                    "{policy:?}: expected the literal rules to violate \
                     regularly at paper densities, measured {rate}"
                ),
            }
        }
    }
}
