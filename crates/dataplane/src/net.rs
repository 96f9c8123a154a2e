//! The live network under the dataplane: a [`ChurnEngine`] control plane
//! plus the retained CSR adjacency the forwarding engine actually walks.
//!
//! `ChurnNet` makes the control-plane/data-plane staleness window
//! explicit. A [`ChurnNet::kill`] updates the *current* liveness mask
//! immediately — the radio is off the moment the host dies, which is
//! what [`crate::Dataplane::pump`] checks before every transmission —
//! but the gateway backbone and the adjacency only change at the next
//! [`ChurnNet::refresh`], exactly as the incremental CDS engine
//! re-solves its dirty tiles. The gap between those two moments is the
//! window the NACK/retransmit path exists to close.
//!
//! Kills never move a host, so the adjacency among live hosts stays the
//! one built at [`ChurnNet::open`]. A refresh therefore patches the
//! retained CSR in place ([`Graph::isolate_in_place`]) — only the rows
//! of the newly dead hosts and their neighbours are rewritten — instead of
//! rebuilding the unit-disk graph over all hosts.

use pacds_core::CdsConfig;
use pacds_geom::{Point2, Rect};
use pacds_graph::gen::{unit_disk_csr, UnitDiskScratch};
use pacds_graph::{Graph, NodeId};
use pacds_shard::{ChurnEngine, ChurnError, ChurnEvent, ChurnStats, ShardSpec};

/// A churn-driven unit-disk network with retained adjacency and masks.
#[derive(Debug)]
pub struct ChurnNet {
    engine: ChurnEngine,
    graph: Graph,
    /// Current liveness — updated by [`Self::kill`] *immediately*.
    alive: Vec<bool>,
    /// Gateway mask as of the last refresh (the control plane's view).
    gateway: Vec<bool>,
    /// Hosts killed since the last refresh, still connected in `graph`.
    pending: Vec<NodeId>,
}

impl ChurnNet {
    /// Opens the network: solves the initial CDS and builds the adjacency.
    pub fn open(
        spec: ShardSpec,
        bounds: Rect,
        radius: f64,
        points: &[Point2],
        energy: &[u64],
        cfg: &CdsConfig,
    ) -> Result<Self, ChurnError> {
        let engine = ChurnEngine::open(spec, bounds, radius, points, energy, cfg)?;
        let mut graph = Graph::default();
        let off: Vec<bool> = engine.alive().iter().map(|&a| !a).collect();
        unit_disk_csr(
            bounds,
            radius,
            engine.positions(),
            Some(&off),
            &mut graph,
            &mut UnitDiskScratch::default(),
        );
        Ok(Self {
            graph,
            alive: engine.alive().to_vec(),
            gateway: engine.gateways().clone(),
            pending: Vec::new(),
            engine,
        })
    }

    /// Kills `node`: the control plane records the event (dirty tiles,
    /// deferred re-solve) and the *current* liveness mask flips at once.
    /// Tables and adjacency stay stale until [`Self::refresh`].
    pub fn kill(&mut self, node: u32) -> Result<(), ChurnError> {
        self.engine.apply(&ChurnEvent::KillNode { node })?;
        self.alive[node as usize] = false;
        self.pending.push(node);
        Ok(())
    }

    /// Re-solves the dirty tiles and brings adjacency, liveness, and the
    /// gateway mask back in sync with the control plane.
    pub fn refresh(&mut self) -> ChurnStats {
        let stats = self.engine.refresh();
        self.alive.clear();
        self.alive.extend_from_slice(self.engine.alive());
        self.gateway.clear();
        self.gateway.extend_from_slice(self.engine.gateways());
        self.graph.isolate_in_place(&mut self.pending);
        stats
    }

    /// The adjacency as of the last refresh.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Current per-host liveness (fresher than the installed tables
    /// between a kill and the next refresh).
    pub fn alive(&self) -> &[bool] {
        &self.alive
    }

    /// Gateway mask as of the last refresh.
    pub fn gateway(&self) -> &[bool] {
        &self.gateway
    }

    /// Number of gateways as of the last refresh.
    pub fn gateway_count(&self) -> usize {
        self.gateway.iter().filter(|&&b| b).count()
    }

    /// Host count (including dead id slots).
    pub fn n(&self) -> usize {
        self.alive.len()
    }

    /// The underlying control-plane engine.
    pub fn engine(&self) -> &ChurnEngine {
        &self.engine
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pacds_core::Policy;
    use pacds_geom::placement;
    use pacds_shard::REQUIRED_HALO;
    use rand::{Rng, SeedableRng};

    fn small_net() -> ChurnNet {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let bounds = Rect::paper_arena();
        let pts = placement::uniform_points(&mut rng, bounds, 80);
        let energy = vec![100u64; pts.len()];
        let spec = ShardSpec {
            shards: 4,
            halo: REQUIRED_HALO,
            threads: 1,
        };
        ChurnNet::open(
            spec,
            bounds,
            25.0,
            &pts,
            &energy,
            &CdsConfig::policy(Policy::Degree),
        )
        .unwrap()
    }

    #[test]
    fn kill_is_immediate_but_backbone_waits_for_refresh() {
        let mut net = small_net();
        let gw = net
            .gateway()
            .iter()
            .position(|&b| b)
            .expect("some gateway exists") as u32;
        let degree = net.graph().degree(gw);
        assert!(degree > 0, "a gateway has neighbours");
        net.kill(gw).unwrap();
        assert!(!net.alive()[gw as usize], "liveness flips at once");
        assert!(net.gateway()[gw as usize], "backbone still lists it");
        assert_eq!(
            net.graph().degree(gw),
            degree,
            "adjacency untouched until refresh"
        );
        net.refresh();
        assert!(
            !net.gateway()[gw as usize],
            "refresh evicts the dead gateway"
        );
        assert_eq!(net.graph().degree(gw), 0, "dead host is isolated");
    }

    #[test]
    fn refresh_masks_match_the_engine() {
        let mut net = small_net();
        net.kill(3).unwrap();
        net.kill(9).unwrap();
        net.refresh();
        assert_eq!(net.alive(), net.engine().alive());
        assert_eq!(net.gateway(), net.engine().gateways().as_slice());
        assert_eq!(net.gateway_count(), net.engine().gateway_count());
    }

    /// The adjacency a from-scratch build gives for the engine's liveness.
    fn fresh_graph(net: &ChurnNet, bounds: Rect, radius: f64) -> Graph {
        let off: Vec<bool> = net.engine().alive().iter().map(|&a| !a).collect();
        let mut g = Graph::default();
        unit_disk_csr(
            bounds,
            radius,
            net.engine().positions(),
            Some(&off),
            &mut g,
            &mut UnitDiskScratch::default(),
        );
        g
    }

    #[test]
    fn refresh_patch_equals_a_fresh_unit_disk_build() {
        const R: f64 = 25.0;
        let bounds = Rect::paper_arena();
        let spec = ShardSpec {
            shards: 4,
            halo: REQUIRED_HALO,
            threads: 1,
        };
        for seed in 1..=5u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            // The crowd fills the lower-left 60×60; the last two hosts sit
            // more than R away from it and from each other: isolated from
            // the start.
            let mut pts = placement::uniform_points(&mut rng, Rect::new(0.0, 0.0, 60.0, 60.0), 120);
            pts.push(Point2::new(99.0, 99.0));
            pts.push(Point2::new(99.0, 1.0));
            let n = pts.len() as u32;
            let energy: Vec<u64> = (0..n as u64).map(|i| i * 37 % 100 + 1).collect();
            let mut net = ChurnNet::open(
                spec,
                bounds,
                R,
                &pts,
                &energy,
                &CdsConfig::policy(Policy::Degree),
            )
            .unwrap();
            assert_eq!(
                net.graph(),
                &fresh_graph(&net, bounds, R),
                "seed {seed}: open"
            );

            // A host with two neighbours that are neighbours of each other.
            let g = net.graph().clone();
            let (hub, a, b) = (1..n - 2)
                .find_map(|u| {
                    let row = g.neighbors(u);
                    row.iter().enumerate().find_map(|(i, &a)| {
                        row[i + 1..]
                            .iter()
                            .find(|&&b| g.has_edge(a, b) && a != 0 && b != 0)
                            .map(|&b| (u, a, b))
                    })
                })
                .expect("a dense crowd has triangles");
            let mut batches: Vec<Vec<u32>> = vec![
                vec![0, n - 1],  // both ends of the id range; n-1 is isolated
                vec![b, hub, a], // a triangle in one batch, out of order
                vec![n - 2],     // an isolated host alone
            ];
            // Random batches of 1..=6 live hosts until about half are dead.
            let mut dead: Vec<bool> = vec![false; n as usize];
            for batch in &batches {
                for &v in batch {
                    dead[v as usize] = true;
                }
            }
            while dead.iter().filter(|&&d| d).count() < n as usize / 2 {
                let size = rng.random_range(1..=6usize);
                let mut batch = Vec::new();
                while batch.len() < size {
                    let v = rng.random_range(0..n);
                    if !dead[v as usize] {
                        dead[v as usize] = true;
                        batch.push(v);
                    }
                }
                batches.push(batch);
            }

            for (i, batch) in batches.iter().enumerate() {
                for &v in batch {
                    net.kill(v).unwrap();
                }
                net.refresh();
                assert_eq!(
                    net.graph(),
                    &fresh_graph(&net, bounds, R),
                    "seed {seed}: batch {i} {batch:?}"
                );
            }
            // Kill every neighbour of a live host, then the host itself,
            // now already isolated.
            let v = (0..n)
                .find(|&v| net.alive()[v as usize] && net.graph().degree(v) > 0)
                .expect("half the crowd is still connected");
            for u in net.graph().neighbors(v).to_vec() {
                net.kill(u).unwrap();
            }
            net.refresh();
            assert_eq!(net.graph().degree(v), 0, "seed {seed}: {v} is orphaned");
            net.kill(v).unwrap();
            net.refresh();
            assert_eq!(
                net.graph(),
                &fresh_graph(&net, bounds, R),
                "seed {seed}: orphan"
            );
        }
    }
}
