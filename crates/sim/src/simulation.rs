//! The update-interval loop.

use crate::config::SimConfig;
use crate::network::NetworkState;
use pacds_core::CdsWorkspace;
use pacds_graph::{algo, CsrGraph, VertexMask};
use rand::Rng;
use serde::Serialize;
use std::collections::VecDeque;

/// Result of one lifetime run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LifetimeOutcome {
    /// Completed update intervals before the first host death (the paper's
    /// lifetime metric). Equals `max_intervals` if nothing died in time.
    pub intervals: u32,
    /// Whether any host actually died (false = hit the interval cap).
    pub died: bool,
    /// Mean gateway-set size across the simulated intervals.
    pub mean_gateways: f64,
    /// Intervals whose gateway set failed CDS verification (possible under
    /// the paper-literal Rule 2 semantics or on disconnected topologies).
    pub violations: u32,
    /// Intervals whose topology was disconnected before the CDS ran.
    pub disconnected_intervals: u32,
}

/// A configured simulation, stepping one update interval at a time.
#[derive(Debug, Clone)]
pub struct Simulation {
    state: NetworkState,
    verify: bool,
}

impl Simulation {
    /// Initialises the network from `cfg` with randomness from `rng`.
    pub fn new<R: Rng + ?Sized>(cfg: SimConfig, rng: &mut R) -> Self {
        Self {
            state: NetworkState::init(cfg, rng),
            verify: true,
        }
    }

    /// Disables per-interval CDS verification (for benchmarking the raw
    /// simulation loop).
    pub fn without_verification(mut self) -> Self {
        self.verify = false;
        self
    }

    /// Read-only access to the network state.
    pub fn state(&self) -> &NetworkState {
        &self.state
    }

    /// Runs until the first host dies (or the interval cap) and reports the
    /// outcome.
    pub fn run_lifetime<R: Rng + ?Sized>(mut self, rng: &mut R) -> LifetimeOutcome {
        let cap = self.state.config().max_intervals;
        let mut total_gateways = 0u64;
        let mut violations = 0u32;
        let mut disconnected = 0u32;
        let mut intervals = 0u32;
        let mut died = false;
        // One retained gateway mask for the whole run; each interval's CDS
        // is computed in the network's workspace and copied into it.
        let mut gateways = VertexMask::new();
        // Previous interval's roles, retained only when metrics are on, to
        // report gateway churn (hosts whose role flipped between intervals).
        let mut prev_gateways = VertexMask::new();

        while intervals < cap {
            // One trace id per update interval: with span sampling on, the
            // whole interval (connectivity check → CDS → drain → mobility)
            // lands as one reconstructible trace line.
            let trace = pacds_obs::next_trace_id();
            let _interval_span =
                pacds_obs::span(trace, pacds_obs::SpanKind::SimInterval, intervals);
            let connected = algo::is_connected(self.state.graph());
            if !connected {
                disconnected += 1;
            }
            self.state.compute_gateways_into(&mut gateways);
            if pacds_obs::enabled() {
                pacds_obs::inc(pacds_obs::Counter::SimIntervals);
                if intervals > 0 {
                    let churn = gateways
                        .iter()
                        .zip(prev_gateways.iter())
                        .filter(|(a, b)| a != b)
                        .count();
                    pacds_obs::add(pacds_obs::Counter::SimGatewayChurn, churn as u64);
                }
                prev_gateways.clone_from(&gateways);
            }
            total_gateways += gateways.iter().filter(|&&b| b).count() as u64;
            if self.verify && connected && self.state.verify_gateways(&gateways).is_err() {
                violations += 1;
            }

            let deaths = self.state.drain(&gateways);
            intervals += 1;
            if !deaths.is_empty() {
                died = true;
                break;
            }
            self.state.advance_topology(rng);
        }

        LifetimeOutcome {
            intervals,
            died,
            mean_gateways: if intervals == 0 {
                0.0
            } else {
                total_gateways as f64 / f64::from(intervals)
            },
            violations,
            disconnected_intervals: disconnected,
        }
    }
}

/// Lifetime milestones past the paper's first-death metric (extension):
/// dead hosts drop out of the topology and the run continues.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ExtendedOutcome {
    /// Interval of the first host death (the paper's metric).
    pub first_death: u32,
    /// Interval when ≥ 25% of hosts have died.
    pub quarter_dead: u32,
    /// Interval when ≥ 50% of hosts have died.
    pub half_dead: u32,
    /// First interval at which the *surviving* hosts' topology was
    /// disconnected (0 if never observed before `half_dead`).
    pub first_partition: u32,
}

/// Runs past the first death, isolating dead hosts, until half the fleet
/// is gone (or the interval cap).
///
/// Dead hosts are treated like permanently-off hosts: they leave the
/// topology and pay no further energy. The gateway computation and drain
/// continue over the survivors.
pub fn run_extended_lifetime<R: Rng + ?Sized>(
    cfg: SimConfig,
    rng: &mut R,
) -> ExtendedOutcome {
    let mut state = NetworkState::init(cfg, rng);
    let n = cfg.n;
    let mut dead = vec![false; n];
    let mut dead_count = 0usize;
    // Persistent survivor-topology buffers: each interval re-masks the CSR
    // in place (no graph clone), recomputes the CDS in one retained
    // workspace, and reuses the level/alive/BFS scratch — the loop body is
    // allocation-free once warm.
    let mut survivors = CsrGraph::new();
    let mut ws = CdsWorkspace::with_capacity(n);
    let mut levels = Vec::with_capacity(n);
    let mut alive = Vec::with_capacity(n);
    let mut seen = Vec::with_capacity(n);
    let mut queue = VecDeque::with_capacity(n);
    let mut out = ExtendedOutcome {
        first_death: 0,
        quarter_dead: 0,
        half_dead: 0,
        first_partition: 0,
    };
    let mut intervals = 0u32;
    while intervals < cfg.max_intervals {
        // Survivor topology: isolate the dead.
        survivors.rebuild_from_masked(state.graph(), &dead);
        // Partition check among survivors only.
        if out.first_partition == 0 && dead_count > 0 {
            alive.clear();
            alive.extend(dead.iter().map(|&d| !d));
            if !algo::is_connected_within_scratch(&survivors, &alive, &mut seen, &mut queue) {
                out.first_partition = intervals + 1;
            }
        }
        pacds_obs::inc(pacds_obs::Counter::SimIntervals);
        state.fleet().levels_into(&mut levels);
        let gateways = ws.compute(&survivors, Some(&levels), &cfg.cds);
        // Dead hosts pay nothing; the rest follow gateway/non-gateway roles.
        let g_count = gateways.iter().filter(|&&b| b).count();
        let d_gw = cfg
            .energy
            .gateway_drain
            .gateway_drain(n, g_count);
        let dp = cfg.energy.non_gateway_drain;
        let additive = cfg.energy.additive_gateway_drain;
        let newly_dead = {
            let dead_ref = &dead;
            let gw = &gateways;
            state.drain_custom_collect(|v| {
                if dead_ref[v] {
                    0.0
                } else if gw[v] {
                    if additive {
                        d_gw + dp
                    } else {
                        d_gw
                    }
                } else {
                    dp
                }
            })
        };
        intervals += 1;
        for v in newly_dead {
            dead[v] = true;
            dead_count += 1;
            if out.first_death == 0 {
                out.first_death = intervals;
            }
            if out.quarter_dead == 0 && dead_count * 4 >= n {
                out.quarter_dead = intervals;
            }
            if out.half_dead == 0 && dead_count * 2 >= n {
                out.half_dead = intervals;
            }
        }
        if out.half_dead != 0 {
            break;
        }
        state.advance_topology(rng);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pacds_core::Policy;
    use pacds_energy::DrainModel;
    use rand::SeedableRng;

    #[test]
    fn model2_lifetime_is_bounded_by_non_gateway_budget() {
        // d' = 1, initial 100: nothing survives past 100 intervals; model 2
        // gateways drain faster, so the first death is at most interval 100.
        let mut rng = rand::rngs::StdRng::seed_from_u64(10);
        let cfg = SimConfig::paper(20, Policy::Id, DrainModel::LinearInN);
        let out = Simulation::new(cfg, &mut rng).run_lifetime(&mut rng);
        assert!(out.died);
        assert!(out.intervals <= 100, "{out:?}");
        assert!(out.intervals >= 1);
        assert!(out.mean_gateways >= 1.0);
    }

    #[test]
    fn model1_literal_reading_hits_the_non_gateway_wall() {
        // d = 2/|G'| is usually < d' = 1: the first death comes from a
        // mostly-non-gateway host around interval 100 (a host that served
        // as a cheap gateway for some intervals lasts slightly longer, so
        // the wall is approached from above as roles churn).
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let cfg = SimConfig::paper(30, Policy::Id, DrainModel::ConstantTotal);
        let out = Simulation::new(cfg, &mut rng).run_lifetime(&mut rng);
        assert!(out.died);
        assert!((90..=160).contains(&out.intervals), "{out:?}");
    }

    #[test]
    fn energy_policy_lifetimes_are_reproducible_per_seed() {
        let cfg = SimConfig::paper(25, Policy::Energy, DrainModel::LinearInN);
        let run = |seed: u64| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            Simulation::new(cfg, &mut rng).run_lifetime(&mut rng)
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn interval_cap_reports_no_death() {
        let mut cfg = SimConfig::paper(10, Policy::Id, DrainModel::ConstantTotal);
        cfg.max_intervals = 5; // far below any possible death
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        let out = Simulation::new(cfg, &mut rng).run_lifetime(&mut rng);
        assert!(!out.died);
        assert_eq!(out.intervals, 5);
    }

    #[test]
    fn extended_lifetime_milestones_are_ordered() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let cfg = SimConfig::paper(20, Policy::Energy, DrainModel::LinearInN);
        let out = run_extended_lifetime(cfg, &mut rng);
        assert!(out.first_death >= 1);
        assert!(out.quarter_dead >= out.first_death);
        assert!(out.half_dead >= out.quarter_dead, "{out:?}");
        if out.first_partition != 0 {
            assert!(out.first_partition >= out.first_death);
        }
    }

    #[test]
    fn extended_lifetime_first_death_matches_basic_run() {
        let cfg = SimConfig::paper(25, Policy::Id, DrainModel::LinearInN);
        let basic = {
            let mut rng = rand::rngs::StdRng::seed_from_u64(33);
            Simulation::new(cfg, &mut rng).without_verification().run_lifetime(&mut rng)
        };
        let extended = {
            let mut rng = rand::rngs::StdRng::seed_from_u64(33);
            run_extended_lifetime(cfg, &mut rng)
        };
        assert_eq!(extended.first_death, basic.intervals);
    }

    #[test]
    fn rotation_extends_lifetime_versus_static_ids_on_average() {
        // The headline claim of the paper, at small scale: EL1 should meet
        // or beat ID for model 2 on average over a handful of seeds.
        let lifetime = |policy: Policy, seed: u64| {
            let cfg = SimConfig::paper(40, policy, DrainModel::LinearInN);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            Simulation::new(cfg, &mut rng).run_lifetime(&mut rng).intervals
        };
        let seeds = [1u64, 2, 3, 4, 5, 6, 7, 8];
        let id: u32 = seeds.iter().map(|&s| lifetime(Policy::Id, s)).sum();
        let el: u32 = seeds.iter().map(|&s| lifetime(Policy::Energy, s)).sum();
        assert!(
            el >= id,
            "energy rotation should not lose to static IDs: EL1={el} ID={id}"
        );
    }
}
