//! Simulation configuration.

use pacds_core::{CdsConfig, Policy};
use pacds_energy::{DrainModel, EnergyConfig};
use pacds_geom::Rect;
use pacds_mobility::PaperWalk;
use serde::{Deserialize, Serialize};

/// What to do when random placement yields a disconnected topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ConnectivityMode {
    /// Re-sample initial placements until the unit-disk graph is connected
    /// (up to a retry cap), then accept whatever mobility produces later.
    /// This is the conventional reading of the paper's "an undirected graph
    /// is randomly generated".
    #[default]
    ResampleInitial,
    /// Accept any topology. The marking process and rules are local and
    /// remain well-defined per component.
    AcceptAny,
}

/// Full configuration of one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Number of hosts (the paper sweeps 3..=100).
    pub n: usize,
    /// The arena (the paper: 100 x 100).
    pub bounds: Rect,
    /// Transmission radius (the paper: 25).
    pub radius: f64,
    /// CDS policy and rule semantics.
    pub cds: CdsConfig,
    /// Energy model.
    pub energy: EnergyConfig,
    /// Mobility model parameters.
    pub walk: PaperWalk,
    /// Connectivity handling for the initial placement.
    pub connectivity: ConnectivityMode,
    /// Retry cap for [`ConnectivityMode::ResampleInitial`].
    pub placement_retries: usize,
    /// Hard cap on simulated intervals (guards degenerate configurations
    /// where no host ever dies).
    pub max_intervals: u32,
    /// Per-interval probability that a host switches itself off (the
    /// paper's "switching on/off" form of mobility). Off hosts leave the
    /// topology for the interval and pay no energy.
    pub off_probability: f64,
}

impl SimConfig {
    /// The paper's evaluation setting for `n` hosts under `policy` and
    /// `model`.
    ///
    /// Uses the *safe* (min-of-three) Rule 2 semantics: EXPERIMENTS.md
    /// shows this is the variant whose behaviour matches the paper's own
    /// reported results ("EL1 ... does not generate the smallest set" yet
    /// wins on lifetime), whereas the literal case-analysis text
    /// over-prunes and inverts the lifetime ranking. Set
    /// `cds.rule2 = Rule2Semantics::CaseAnalysis` to run the literal rules.
    pub fn paper(n: usize, policy: Policy, model: DrainModel) -> Self {
        Self {
            n,
            bounds: Rect::paper_arena(),
            radius: 25.0,
            cds: CdsConfig::policy(policy),
            energy: EnergyConfig::paper(model),
            walk: PaperWalk::paper(),
            connectivity: ConnectivityMode::ResampleInitial,
            placement_retries: 200,
            max_intervals: 100_000,
            off_probability: 0.0,
        }
    }

    /// Basic sanity checks; called by the simulation entry points.
    pub fn validate(&self) {
        assert!(self.n >= 1, "need at least one host");
        assert!(self.radius > 0.0, "radius must be positive");
        assert!(self.energy.initial > 0.0, "hosts must start alive");
        assert!(self.max_intervals > 0);
        assert!(
            (0.0..=1.0).contains(&self.off_probability),
            "off_probability out of range"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_section4() {
        let cfg = SimConfig::paper(50, Policy::Energy, DrainModel::LinearInN);
        assert_eq!(cfg.n, 50);
        assert_eq!(cfg.bounds, Rect::paper_arena());
        assert_eq!(cfg.radius, 25.0);
        assert_eq!(cfg.energy.initial, 100.0);
        assert_eq!(cfg.energy.non_gateway_drain, 1.0);
        assert_eq!(cfg.walk.stay_probability, 0.5);
        assert_eq!(cfg.walk.max_step, 6);
        cfg.validate();
    }

    #[test]
    #[should_panic]
    fn zero_hosts_rejected() {
        let mut cfg = SimConfig::paper(1, Policy::Id, DrainModel::ConstantTotal);
        cfg.n = 0;
        cfg.validate();
    }

    #[test]
    fn config_serialises() {
        let cfg = SimConfig::paper(10, Policy::Degree, DrainModel::QuadraticInN);
        let json = serde_json::to_string(&cfg).unwrap();
        let back: SimConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(cfg, back);
    }

    #[test]
    fn configs_naming_the_retired_maintenance_flags_still_load() {
        // Scenario files written before `incremental`/`churn` were removed
        // still parse; both flags only ever selected an engine with the
        // same output, so dropping them changes no result.
        let cfg = SimConfig::paper(10, Policy::Energy, DrainModel::LinearInN);
        let json = serde_json::to_string(&cfg).unwrap();
        let legacy = format!(
            "{},\"incremental\":true,\"churn\":false}}",
            json.strip_suffix('}').unwrap()
        );
        let back: SimConfig = serde_json::from_str(&legacy).unwrap();
        assert_eq!(cfg, back);
    }
}
