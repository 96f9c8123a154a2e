//! The live network state: host positions, topology, batteries.

use crate::config::{ConnectivityMode, SimConfig};
use pacds_core::CdsWorkspace;
use pacds_energy::Fleet;
use pacds_geom::Point2;
use pacds_graph::{algo, gen, Graph, VertexMask};
use pacds_mobility::{MobilityModel, PaperWalk};
use rand::Rng;

/// Mutable state of the simulated network.
///
/// Owns the whole zero-allocation hot path: the topology is one [`Graph`]
/// rebuilt in place each interval straight from the host positions
/// ([`gen::unit_disk_csr`]), the CDS is recomputed through one
/// retained [`CdsWorkspace`], and the energy quantisation reuses one level
/// buffer. The per-interval CDS work —
/// [`NetworkState::compute_gateways_in_place`] / `_into`, verification and
/// drain — performs no heap allocation once warm (pinned by
/// `tests/zero_alloc.rs`); the topology rebuild is amortised-free, only
/// allocating when a buffer first reaches a new high-water mark.
#[derive(Debug, Clone)]
pub struct NetworkState {
    cfg: SimConfig,
    positions: Vec<Point2>,
    graph: Graph,
    fleet: Fleet,
    walk: PaperWalk,
    off: Vec<bool>,
    ws: CdsWorkspace,
    udg_scratch: gen::UnitDiskScratch,
    levels: Vec<u64>,
}

impl NetworkState {
    /// Places hosts per the config and builds the initial topology.
    pub fn init<R: Rng + ?Sized>(cfg: SimConfig, rng: &mut R) -> Self {
        cfg.validate();
        let with_graph = |pts: Vec<Point2>| {
            let g = gen::unit_disk(cfg.bounds, cfg.radius, &pts);
            (pts, g)
        };
        let (positions, graph) = match cfg.connectivity {
            ConnectivityMode::AcceptAny => with_graph(pacds_geom::placement::uniform_points(
                rng, cfg.bounds, cfg.n,
            )),
            ConnectivityMode::ResampleInitial => {
                // Uniform placement rarely connects at sparse densities (at
                // the paper's n=10 fewer than 1% of draws do), so a bounded
                // retry loop alone cannot promise a connected start. After
                // the cap, fall back to the anchored placement whose
                // construction guarantees a spanning tree within radius.
                let mut placed = None;
                for _ in 0..cfg.placement_retries.max(1) {
                    let candidate = with_graph(pacds_geom::placement::uniform_points(
                        rng, cfg.bounds, cfg.n,
                    ));
                    if algo::is_connected(&candidate.1) {
                        placed = Some(candidate);
                        break;
                    }
                }
                placed.unwrap_or_else(|| {
                    with_graph(pacds_geom::placement::connected_uniform_points(
                        rng, cfg.bounds, cfg.radius, cfg.n,
                    ))
                })
            }
        };
        let fleet = Fleet::new(cfg.n, cfg.energy);
        let walk = cfg.walk;
        Self {
            off: vec![false; cfg.n],
            ws: CdsWorkspace::with_capacity(cfg.n),
            udg_scratch: gen::UnitDiskScratch::new(),
            levels: Vec::with_capacity(cfg.n),
            cfg,
            positions,
            graph,
            fleet,
            walk,
        }
    }

    /// The simulation configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Current host positions.
    pub fn positions(&self) -> &[Point2] {
        &self.positions
    }

    /// Current unit-disk topology.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Current batteries.
    pub fn fleet(&self) -> &Fleet {
        &self.fleet
    }

    /// Computes the gateway set for the current topology and energy levels
    /// under the configured policy, returning a fresh mask. Prefer
    /// [`NetworkState::compute_gateways_in_place`] (or `_into`) inside
    /// interval loops — this wrapper clones the result.
    pub fn compute_gateways(&mut self) -> VertexMask {
        self.compute_gateways_in_place().clone()
    }

    /// Computes the gateway set without allocating: energy levels are
    /// quantised into a retained buffer and the CDS runs in the owned
    /// [`CdsWorkspace`] over the topology. The returned reference
    /// stays valid until the next computation.
    pub fn compute_gateways_in_place(&mut self) -> &VertexMask {
        let _t = pacds_obs::phase_timer(pacds_obs::Phase::SimCds);
        self.fleet.levels_into(&mut self.levels);
        self.ws
            .compute(&self.graph, Some(&self.levels), &self.cfg.cds)
    }

    /// [`NetworkState::compute_gateways_in_place`], copied into a
    /// caller-provided mask (cleared and refilled — no allocation once
    /// `out` has capacity `n`).
    pub fn compute_gateways_into(&mut self, out: &mut VertexMask) {
        let gw = self.compute_gateways_in_place();
        out.clone_from(gw);
    }

    /// Verifies a gateway mask against the current topology using the
    /// workspace's BFS scratch (allocation-free once warm).
    pub fn verify_gateways(&mut self, mask: &[bool]) -> Result<(), pacds_core::CdsViolation> {
        self.ws.verify(&self.graph, mask)
    }

    /// Which hosts are switched off this interval.
    pub fn off(&self) -> &[bool] {
        &self.off
    }

    /// Applies one interval's battery drain given the gateway roles.
    /// Returns the hosts that died. Off hosts pay nothing.
    pub fn drain(&mut self, gateways: &[bool]) -> Vec<usize> {
        let _t = pacds_obs::phase_timer(pacds_obs::Phase::SimDrain);
        let died = if self.off.iter().any(|&o| o) {
            self.fleet.drain_interval_with_off(gateways, &self.off)
        } else {
            self.fleet.drain_interval(gateways)
        };
        pacds_obs::add(pacds_obs::Counter::SimDeaths, died.len() as u64);
        died
    }

    /// Applies an arbitrary per-host drain (used by the load-aware
    /// extension). Returns `true` if any host died.
    pub fn drain_custom<F: Fn(usize) -> f64>(&mut self, amount: F) -> bool {
        !self.fleet.drain_each(amount).is_empty()
    }

    /// Like [`NetworkState::drain_custom`] but returns the hosts that died.
    pub fn drain_custom_collect<F: Fn(usize) -> f64>(&mut self, amount: F) -> Vec<usize> {
        self.fleet.drain_each(amount)
    }

    /// Moves hosts one interval, resamples on/off states, and rebuilds the
    /// topology in place (off hosts are isolated for the interval).
    ///
    /// The unit-disk graph is written straight into the retained graph's
    /// arrays. The step is amortised allocation-free: buffers grow
    /// monotonically, so it only allocates when mobility pushes the edge
    /// count past its previous high-water mark.
    pub fn advance_topology<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        {
            let _t = pacds_obs::phase_timer(pacds_obs::Phase::SimPlacement);
            self.walk.step(rng, self.cfg.bounds, &mut self.positions);
            if self.cfg.off_probability > 0.0 {
                for o in self.off.iter_mut() {
                    *o = rng.random_range(0.0..1.0) < self.cfg.off_probability;
                }
            }
        }
        let off = (self.cfg.off_probability > 0.0).then_some(&self.off[..]);
        let _t = pacds_obs::phase_timer(pacds_obs::Phase::SimCsrRebuild);
        gen::unit_disk_csr(
            self.cfg.bounds,
            self.cfg.radius,
            &self.positions,
            off,
            &mut self.graph,
            &mut self.udg_scratch,
        );
        pacds_obs::inc(pacds_obs::Counter::SimTopologyRebuilds);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pacds_core::Policy;
    use pacds_energy::DrainModel;
    use rand::SeedableRng;

    fn cfg(n: usize) -> SimConfig {
        SimConfig::paper(n, Policy::Id, DrainModel::LinearInN)
    }

    #[test]
    fn init_resamples_to_a_connected_graph() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for n in [3usize, 10, 40] {
            let st = NetworkState::init(cfg(n), &mut rng);
            assert_eq!(st.positions().len(), n);
            assert!(
                algo::is_connected(st.graph()),
                "paper-density topologies should connect within the retry cap (n={n})"
            );
        }
    }

    #[test]
    fn gateways_dominate_connected_topologies() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let mut st = NetworkState::init(cfg(30), &mut rng);
        let gw = st.compute_gateways();
        assert!(pacds_core::verify_cds(st.graph(), &gw).is_ok());
    }

    #[test]
    fn drain_kills_eventually() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut st = NetworkState::init(cfg(10), &mut rng);
        let mut died = Vec::new();
        for _ in 0..100_000 {
            let gw = st.compute_gateways();
            died = st.drain(&gw);
            if !died.is_empty() {
                break;
            }
        }
        assert!(!died.is_empty(), "model 2 must kill within the cap");
    }

    #[test]
    fn off_hosts_are_isolated_and_preserved() {
        let mut c = cfg(30);
        c.off_probability = 0.4;
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let mut st = NetworkState::init(c, &mut rng);
        let mut saw_off = false;
        for _ in 0..10 {
            st.advance_topology(&mut rng);
            let gw = st.compute_gateways();
            let off = st.off().to_vec();
            for (v, &gwv) in gw.iter().enumerate() {
                if off[v] {
                    saw_off = true;
                    assert_eq!(st.graph().degree(v as u32), 0, "off host must be isolated");
                    assert!(!gwv, "off host cannot be a gateway");
                }
            }
            let before: Vec<f64> = (0..30).map(|v| st.fleet().energy(v)).collect();
            st.drain(&gw);
            for (v, &b) in before.iter().enumerate() {
                if off[v] {
                    assert_eq!(st.fleet().energy(v), b, "off host pays nothing");
                }
            }
        }
        assert!(saw_off, "with p=0.4 some host must have switched off");
    }

    #[test]
    fn advance_topology_rebuilds_graph() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let mut st = NetworkState::init(cfg(25), &mut rng);
        let before = st.graph().clone();
        let mut changed = false;
        for _ in 0..10 {
            st.advance_topology(&mut rng);
            if *st.graph() != before {
                changed = true;
                break;
            }
        }
        assert!(changed, "mobility should alter the topology quickly");
        assert!(st
            .positions()
            .iter()
            .all(|&p| st.config().bounds.contains(p)));
    }
}
