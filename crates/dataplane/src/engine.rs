//! The vector-dispatch forwarding engine: a fixed graph of processing
//! nodes pumping batches of packet indices.
//!
//! ```text
//!             ┌──────────> flood ─────────┐
//!   ingress → classify                    ├→ egress
//!             └→ lookup ──→ forward ──────┘
//!                  │            │
//!                  ├──→ drop    └──→ nack ──(requeue after refresh)──→ lookup
//!                  └──→ nack
//! ```
//!
//! Dispatch is vectorised in the R2 style: each node drains its entire
//! input queue per sweep, touching one packet field array at a time, and a
//! [`Dataplane::pump`] runs sweeps until every queue is empty. Because a
//! pump always runs to quiescence, every packet ends a pump in a terminal
//! state (`Delivered`/`Dropped`) or parked in the NACK retransmit list —
//! which is what lets a table install clear the route arena wholesale
//! without chasing in-flight route handles.
//!
//! The NACK path guarantees (pinned by the benches, not just measured):
//! the forward node checks the next hop against the *current* liveness
//! mask before every transmission, so **no packet is ever forwarded into
//! a dead node** — a route that has gone stale is NACKed at the last live
//! hop, parked, and retransmitted over fresh tables after the next churn
//! refresh ([`Dataplane::requeue_nacked`]).
//!
//! Hot-loop counters accumulate in stack locals and flush to the obs
//! layer once per pump, so the per-packet path never touches an atomic.

use crate::packet::{Disposition, PacketBatch, PacketKind, RouteArena, ROUTE_NONE};
use crate::FloodEngine;
use pacds_graph::{Graph, NodeId};
use pacds_obs::{obs_count, obs_time, Counter, Phase, SpanKind, TraceId};
use pacds_routing::{BackboneRoutes, FloodCost, RouteError};

/// Processing nodes of the forwarding graph, in dispatch order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum DpNode {
    /// Admits injected packets and stamps ingress accounting.
    Ingress = 0,
    /// Splits unicast from broadcast traffic.
    Classify = 1,
    /// Backbone lookup: resolves the flow's source route (three-step
    /// assembly via [`BackboneRoutes`]), or fails typed.
    Lookup = 2,
    /// Hop-by-hop relay along the stamped source route.
    Forward = 3,
    /// Broadcast execution through the [`FloodEngine`].
    Flood = 4,
    /// Delivery point.
    Egress = 5,
    /// Stale-route NACKs parked for retransmission (AP-server style
    /// error-to-receiver signalling).
    Nack = 6,
    /// Terminal drops (unroutable traffic).
    Drop = 7,
}

/// Number of processing nodes.
pub const NUM_DP_NODES: usize = 8;

/// Display labels, indexed by [`DpNode`] discriminant.
pub const DP_NODE_NAMES: [&str; NUM_DP_NODES] = [
    "ingress", "classify", "lookup", "forward", "flood", "egress", "nack", "drop",
];

/// Per-node typed counters: the engine's own dispatch accounting, always
/// compiled in (the obs layer additionally gets per-pump flushes when
/// enabled).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NodeCounters {
    /// Packets this node accepted from its input queue.
    pub in_packets: u64,
    /// Packets this node handed to a successor node.
    pub out_packets: u64,
    /// Packets that failed at this node (route errors, stale hops).
    pub errors: u64,
}

/// One registered unicast flow: a (src, dst) pair with a cached route.
#[derive(Debug, Clone, Copy)]
struct Flow {
    src: NodeId,
    dst: NodeId,
    /// Cached route handle, valid iff `epoch` matches the tables.
    route: u32,
    epoch: u32,
}

/// Cumulative engine statistics (monotone; diff two snapshots for a
/// per-wave view).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DpStats {
    /// Packets admitted at ingress (including retransmissions).
    pub injected: u64,
    /// Packets delivered at egress (unicast + completed broadcasts).
    pub delivered: u64,
    /// Packets terminally dropped.
    pub dropped: u64,
    /// Packets NACKed on a stale route.
    pub nacked: u64,
    /// NACKed packets re-injected after a table install.
    pub retransmits: u64,
    /// Per-hop forward operations (aggregate transmissions).
    pub forwarded_hops: u64,
    /// Packets forwarded into a dead node — structurally zero; the
    /// benches and `--fail-on-errors` assert it stays that way.
    pub misroutes: u64,
    /// Flood transmissions across all broadcasts.
    pub flood_transmissions: u64,
    /// Duplicate flood receptions suppressed.
    pub flood_duplicates: u64,
    /// Hosts reached across all broadcasts.
    pub flood_reached: u64,
}

/// The forwarding engine. See the module docs for the node-graph shape
/// and the batch invariants.
#[derive(Debug, Default)]
pub struct Dataplane {
    batch: PacketBatch,
    arena: RouteArena,
    routes: BackboneRoutes,
    flood: FloodEngine,
    flows: Vec<Flow>,
    queues: [Vec<u32>; NUM_DP_NODES],
    /// Drain scratch: a node's input queue is swapped here before the
    /// sweep so successors can enqueue without aliasing.
    work: Vec<u32>,
    counters: [NodeCounters; NUM_DP_NODES],
    /// NACKed packets awaiting fresh tables.
    retransmit: Vec<u32>,
    stats: DpStats,
    path_buf: Vec<NodeId>,
    last_flood: Option<FloodCost>,
    trace: TraceId,
}

impl Dataplane {
    /// An empty engine; [`Self::install_tables`] must run before traffic.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs a new epoch of backbone tables from the control plane's
    /// gateway and liveness masks, invalidating every cached route (the
    /// arena is cleared wholesale; flow caches miss on the epoch bump).
    /// Destination trees survive: each is repaired from the hosts that
    /// joined or left the backbone on its next use. That repair holds
    /// only under [`BackboneRoutes::install`]'s precondition: between two
    /// installs the graph only loses edges. Hosts may die, but none may
    /// move or appear — an arriving host brings edges.
    ///
    /// # Panics
    /// Panics if packets are still queued inside the node graph — pump to
    /// quiescence first (NACK-parked packets are fine; that is the
    /// retransmit path).
    pub fn install_tables(&mut self, gateway: &[bool], alive: &[bool]) {
        assert!(
            self.queues.iter().all(Vec::is_empty),
            "install_tables with packets in flight; pump to quiescence first"
        );
        self.routes.install(gateway, alive);
        self.arena.clear();
    }

    /// Registers a unicast flow and returns its id.
    pub fn add_flow(&mut self, src: NodeId, dst: NodeId) -> u32 {
        self.flows.push(Flow {
            src,
            dst,
            route: ROUTE_NONE,
            epoch: 0,
        });
        (self.flows.len() - 1) as u32
    }

    /// Number of registered flows.
    pub fn flow_count(&self) -> usize {
        self.flows.len()
    }

    /// Injects `count` packets on flow `flow` into the ingress queue.
    pub fn inject(&mut self, flow: u32, count: usize) {
        let f = self.flows[flow as usize];
        for _ in 0..count {
            let id = self.batch.push(f.src, f.dst, PacketKind::Unicast, flow);
            self.queues[DpNode::Ingress as usize].push(id);
        }
    }

    /// Injects one broadcast packet from `src` (blind or gateway-relayed).
    pub fn inject_broadcast(&mut self, src: NodeId, blind: bool) {
        let kind = if blind {
            PacketKind::BlindBroadcast
        } else {
            PacketKind::GatewayBroadcast
        };
        let id = self.batch.push(src, NodeId::MAX, kind, u32::MAX);
        self.queues[DpNode::Ingress as usize].push(id);
    }

    /// Attributes subsequent pump spans to `trace` (no-op unless the
    /// `trace` feature is on and the id is sampled).
    pub fn set_trace(&mut self, trace: TraceId) {
        self.trace = trace;
    }

    /// Pumps the node graph to quiescence against the *current* network
    /// state: `g` for adjacency, `alive` for per-transmission liveness
    /// (may be fresher than the installed tables — that gap is exactly
    /// what the NACK path handles). Returns the cumulative stats.
    pub fn pump(&mut self, g: &Graph, alive: &[bool]) -> DpStats {
        obs_time!(_t, Phase::DpPump);
        let admitted = self.queues[DpNode::Ingress as usize].len();
        let _span = pacds_obs::span(self.trace, SpanKind::DpPump, admitted as u32);
        let tally = self.pump_loop(g, alive);
        self.stats.injected += tally.ingressed;
        self.stats.forwarded_hops += tally.forwarded;
        self.stats.delivered += tally.delivered;
        self.stats.dropped += tally.dropped;
        self.stats.nacked += tally.nacked;
        self.stats.misroutes += tally.misroutes;
        obs_count!(Counter::DpPackets, tally.ingressed);
        obs_count!(Counter::DpForwarded, tally.forwarded);
        obs_count!(Counter::DpDelivered, tally.delivered);
        obs_count!(Counter::DpDropped, tally.dropped);
        obs_count!(Counter::DpNacks, tally.nacked);
        obs_count!(Counter::DpMisroutes, tally.misroutes);
        self.stats
    }

    /// The sweep loop proper, kept out of [`Self::pump`]'s frame on
    /// purpose: the forward sweep runs at ~1 ns/hop, where even the
    /// frame-layout shifts caused by the (feature-gated) instrumentation
    /// in `pump` register as double-digit relative overhead in
    /// `bench_obs`. Out of line, the hot code compiles identically in
    /// both builds and the per-pump obs cost stays amortised across the
    /// whole batch.
    #[inline(never)]
    fn pump_loop(&mut self, g: &Graph, alive: &[bool]) -> PumpTally {
        let mut tally = PumpTally::default();
        loop {
            let mut moved = false;
            for node in 0..NUM_DP_NODES {
                if self.queues[node].is_empty() {
                    continue;
                }
                moved = true;
                std::mem::swap(&mut self.queues[node], &mut self.work);
                self.counters[node].in_packets += self.work.len() as u64;
                match node {
                    n if n == DpNode::Ingress as usize => self.sweep_ingress(&mut tally),
                    n if n == DpNode::Classify as usize => self.sweep_classify(),
                    n if n == DpNode::Lookup as usize => self.sweep_lookup(g),
                    n if n == DpNode::Forward as usize => self.sweep_forward(alive, &mut tally),
                    n if n == DpNode::Flood as usize => self.sweep_flood(g, alive),
                    n if n == DpNode::Egress as usize => self.sweep_egress(&mut tally),
                    n if n == DpNode::Nack as usize => self.sweep_nack(&mut tally),
                    _ => self.sweep_drop(&mut tally),
                }
                self.work.clear();
            }
            if !moved {
                break;
            }
        }
        tally
    }

    fn sweep_ingress(&mut self, tally: &mut PumpTally) {
        for i in 0..self.work.len() {
            let id = self.work[i];
            tally.ingressed += 1;
            self.counters[DpNode::Ingress as usize].out_packets += 1;
            self.queues[DpNode::Classify as usize].push(id);
        }
    }

    fn sweep_classify(&mut self) {
        for i in 0..self.work.len() {
            let id = self.work[i];
            let next = match self.batch.kind[id as usize] {
                PacketKind::Unicast => DpNode::Lookup,
                _ => DpNode::Flood,
            };
            self.counters[DpNode::Classify as usize].out_packets += 1;
            self.queues[next as usize].push(id);
        }
    }

    fn sweep_lookup(&mut self, g: &Graph) {
        for i in 0..self.work.len() {
            let id = self.work[i];
            let fid = self.batch.flow[id as usize] as usize;
            let flow = self.flows[fid];
            let route = if flow.route != ROUTE_NONE && flow.epoch == self.routes.epoch() {
                Ok(flow.route)
            } else {
                self.routes
                    .assemble(g, flow.src, flow.dst, &mut self.path_buf)
                    .map(|()| {
                        let r = self.arena.push_route(&self.path_buf);
                        self.flows[fid].route = r;
                        self.flows[fid].epoch = self.routes.epoch();
                        r
                    })
            };
            match route {
                Ok(r) => {
                    self.batch.route[id as usize] = r;
                    self.batch.hop[id as usize] = 0;
                    self.counters[DpNode::Lookup as usize].out_packets += 1;
                    self.queues[DpNode::Forward as usize].push(id);
                }
                Err(RouteError::StaleGateway) | Err(RouteError::GatewayPathMissing) => {
                    // Transient: the backbone will be rebuilt by the next
                    // churn refresh; park for retransmission.
                    self.counters[DpNode::Lookup as usize].errors += 1;
                    self.queues[DpNode::Nack as usize].push(id);
                }
                Err(_) => {
                    // OutOfRange / undominated: no refresh will fix it.
                    self.counters[DpNode::Lookup as usize].errors += 1;
                    self.queues[DpNode::Drop as usize].push(id);
                }
            }
        }
    }

    fn sweep_forward(&mut self, alive: &[bool], tally: &mut PumpTally) {
        for i in 0..self.work.len() {
            let id = self.work[i] as usize;
            let span = self.arena.get(self.batch.route[id]);
            let mut h = self.batch.hop[id] as usize;
            // The host currently holding the packet may itself have died
            // since the last sweep; it cannot transmit.
            if !alive[span[h] as usize] {
                self.counters[DpNode::Forward as usize].errors += 1;
                self.queues[DpNode::Nack as usize].push(id as u32);
                continue;
            }
            // A single-hop route (src == dst) is already at its
            // destination; nothing to transmit.
            if h + 1 == span.len() {
                self.counters[DpNode::Forward as usize].out_packets += 1;
                self.queues[DpNode::Egress as usize].push(id as u32);
                continue;
            }
            loop {
                let next = span[h + 1];
                if !alive[next as usize] {
                    // Stale route: NACK from the last live hop instead of
                    // transmitting into a dead host.
                    self.batch.hop[id] = h as u32;
                    self.counters[DpNode::Forward as usize].errors += 1;
                    self.queues[DpNode::Nack as usize].push(id as u32);
                    break;
                }
                h += 1;
                tally.forwarded += 1;
                // Invariant check, compiled into every build: the hop we
                // advanced onto was verified alive before transmission.
                if !alive[span[h] as usize] {
                    tally.misroutes += 1;
                }
                if h + 1 == span.len() {
                    self.batch.hop[id] = h as u32;
                    self.counters[DpNode::Forward as usize].out_packets += 1;
                    self.queues[DpNode::Egress as usize].push(id as u32);
                    break;
                }
            }
        }
    }

    // Out of line for the same reason as `pump_loop`: this sweep carries
    // its own obs instrumentation, which must not leak into the unicast
    // sweeps' codegen by inlining.
    #[inline(never)]
    fn sweep_flood(&mut self, g: &Graph, alive: &[bool]) {
        obs_time!(_t, Phase::DpFlood);
        for i in 0..self.work.len() {
            let id = self.work[i];
            let src = self.batch.src[id as usize];
            let relays = match self.batch.kind[id as usize] {
                PacketKind::GatewayBroadcast => Some(self.routes.gateway_mask()),
                _ => None,
            };
            let cost = self.flood.run(g, src, relays, Some(alive));
            self.stats.flood_transmissions += cost.transmissions as u64;
            self.stats.flood_reached += cost.reached as u64;
            self.stats.flood_duplicates += self.flood.last_duplicates();
            obs_count!(Counter::DpFloodTransmissions, cost.transmissions);
            obs_count!(Counter::DpFloodDuplicates, self.flood.last_duplicates());
            self.last_flood = Some(cost);
            self.counters[DpNode::Flood as usize].out_packets += 1;
            self.queues[DpNode::Egress as usize].push(id);
        }
    }

    fn sweep_egress(&mut self, tally: &mut PumpTally) {
        for i in 0..self.work.len() {
            let id = self.work[i];
            self.batch.disposition[id as usize] = Disposition::Delivered;
            tally.delivered += 1;
            self.counters[DpNode::Egress as usize].out_packets += 1;
        }
    }

    fn sweep_nack(&mut self, tally: &mut PumpTally) {
        for i in 0..self.work.len() {
            let id = self.work[i];
            self.batch.disposition[id as usize] = Disposition::Nacked;
            self.batch.route[id as usize] = ROUTE_NONE;
            self.batch.hop[id as usize] = 0;
            tally.nacked += 1;
            self.retransmit.push(id);
        }
    }

    fn sweep_drop(&mut self, tally: &mut PumpTally) {
        for i in 0..self.work.len() {
            let id = self.work[i];
            self.batch.disposition[id as usize] = Disposition::Dropped;
            tally.dropped += 1;
        }
    }

    /// Re-injects every NACK-parked packet at the lookup node (their
    /// flows re-resolve against the current tables). Call after
    /// [`Self::install_tables`]; the next pump completes the
    /// kill → refresh → retransmit → first-delivery sequence.
    pub fn requeue_nacked(&mut self) -> usize {
        let n = self.retransmit.len();
        for i in 0..n {
            let id = self.retransmit[i];
            self.batch.disposition[id as usize] = Disposition::InFlight;
            self.queues[DpNode::Lookup as usize].push(id);
        }
        self.retransmit.clear();
        self.stats.retransmits += n as u64;
        obs_count!(Counter::DpRetransmits, n);
        n
    }

    /// NACK-parked packets currently awaiting retransmission.
    pub fn nacked_pending(&self) -> usize {
        self.retransmit.len()
    }

    /// Drops all packet state (terminal and parked), retaining capacity.
    /// Flows, tables, and cumulative stats survive; per-wave callers use
    /// this to keep the batch bounded.
    ///
    /// # Panics
    /// Panics if packets are still queued inside the node graph.
    pub fn reset_packets(&mut self) {
        assert!(
            self.queues.iter().all(Vec::is_empty),
            "reset_packets with packets in flight"
        );
        self.batch.clear();
        self.retransmit.clear();
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> DpStats {
        self.stats
    }

    /// Per-node dispatch counters, indexed by [`DpNode`].
    pub fn node_counters(&self) -> &[NodeCounters; NUM_DP_NODES] {
        &self.counters
    }

    /// The installed backbone tables.
    pub fn routes(&self) -> &BackboneRoutes {
        &self.routes
    }

    /// Mutable access to the tables, e.g. to probe routability with
    /// [`BackboneRoutes::assemble`] before registering a flow. Trees
    /// built through this handle stay valid for the current epoch.
    pub fn routes_mut(&mut self) -> &mut BackboneRoutes {
        &mut self.routes
    }

    /// Outcome of the most recent broadcast, if any.
    pub fn last_flood(&self) -> Option<FloodCost> {
        self.last_flood
    }

    /// The packet store (terminal dispositions are readable until the
    /// next [`Self::reset_packets`]).
    pub fn packets(&self) -> &PacketBatch {
        &self.batch
    }
}

/// Stack accumulator for one pump: the hot loops bump these plain `u64`s
/// and the pump flushes them into [`DpStats`] and the obs counters once.
#[derive(Debug, Default, Clone, Copy)]
struct PumpTally {
    ingressed: u64,
    forwarded: u64,
    delivered: u64,
    dropped: u64,
    nacked: u64,
    misroutes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use pacds_core::{compute_cds, CdsConfig, CdsInput, Policy};
    use pacds_graph::{gen, Graph};
    use pacds_routing::{flood_cost, hop_count};
    use pacds_testkit::oracle::DenseTables;
    use rand::SeedableRng;

    fn fig1() -> (Graph, Vec<bool>) {
        let g = Graph::from_edges(5, &[(0, 1), (0, 4), (1, 2), (1, 4), (2, 3)]);
        let cds = compute_cds(&CdsInput::new(&g), &CdsConfig::policy(Policy::Id));
        (g, cds)
    }

    #[test]
    fn unicast_delivery_matches_route_hop_counts() {
        let (g, cds) = fig1();
        let alive = vec![true; 5];
        let mut dp = Dataplane::new();
        dp.install_tables(&cds, &alive);
        let f = dp.add_flow(4, 3);
        dp.inject(f, 10);
        let stats = dp.pump(&g, &alive);
        assert_eq!(stats.injected, 10);
        assert_eq!(stats.delivered, 10);
        assert_eq!(stats.misroutes, 0);
        let reference = DenseTables::build(&g, &cds, &alive)
            .route(&g, 4, 3)
            .unwrap();
        assert_eq!(stats.forwarded_hops, 10 * hop_count(&reference) as u64);
        // The flow cache resolved the route once for all ten packets.
        assert_eq!(dp.routes().trees_built(), 1);
    }

    #[test]
    fn undominated_destination_is_dropped_not_nacked() {
        // Path 0-1-2 plus isolated 3: no refresh can route to 3.
        let g = Graph::from_edges(4, &[(0, 1), (1, 2)]);
        let gw = vec![false, true, false, false];
        let alive = vec![true; 4];
        let mut dp = Dataplane::new();
        dp.install_tables(&gw, &alive);
        let f = dp.add_flow(0, 3);
        dp.inject(f, 3);
        let stats = dp.pump(&g, &alive);
        assert_eq!(stats.dropped, 3);
        assert_eq!(stats.delivered, 0);
        assert_eq!(dp.nacked_pending(), 0);
        assert_eq!(dp.node_counters()[DpNode::Lookup as usize].errors, 3);
    }

    #[test]
    fn kill_nack_refresh_retransmit_delivers_without_misroutes() {
        // Cycle C6, all gateways; route 0 -> 3 initially through 1 or 5.
        let g = gen::cycle(6);
        let gw = vec![true; 6];
        let mut alive = vec![true; 6];
        let mut dp = Dataplane::new();
        dp.install_tables(&gw, &alive);
        let f = dp.add_flow(0, 3);
        dp.inject(f, 4);
        let s0 = dp.pump(&g, &alive);
        assert_eq!(s0.delivered, 4);
        // Find which way the installed tables route, and kill that hop.
        dp.inject(f, 1);
        dp.pump(&g, &alive);
        let via = {
            let id = dp.packets().len() as u32 - 1;
            let r = dp.batch.route[id as usize];
            dp.arena.get(r)[1]
        };
        alive[via as usize] = false;

        // Stale window: the tables still route through `via`, but the
        // forward node sees the current mask and NACKs.
        dp.inject(f, 5);
        let s1 = dp.pump(&g, &alive);
        assert_eq!(s1.misroutes, 0, "never forwarded into the dead node");
        assert_eq!(s1.nacked, 5);
        assert_eq!(dp.nacked_pending(), 5);
        assert_eq!(s1.delivered - s0.delivered, 1);

        // Control-plane refresh: new masks, retransmit, delivery.
        let mut gw2 = gw.clone();
        gw2[via as usize] = false;
        dp.install_tables(&gw2, &alive);
        assert_eq!(dp.requeue_nacked(), 5);
        let s2 = dp.pump(&g, &alive);
        assert_eq!(s2.delivered, s1.delivered + 5);
        assert_eq!(s2.misroutes, 0);
        assert_eq!(s2.retransmits, 5);
        // Every delivered packet's final route avoids the dead node.
        for id in 0..dp.packets().len() as u32 {
            if dp.packets().disposition(id) == Disposition::Delivered {
                assert!(dp
                    .arena
                    .get(dp.batch.route[id as usize])
                    .iter()
                    .all(|&v| alive[v as usize]));
            }
        }
    }

    #[test]
    fn broadcast_kinds_match_flood_cost_and_gateway_saves() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let bounds = pacds_geom::Rect::paper_arena();
        let pts = pacds_geom::placement::uniform_points(&mut rng, bounds, 80);
        let full = gen::unit_disk(bounds, 25.0, &pts);
        let keep = pacds_graph::algo::largest_component(&full);
        let (g, _) = full.induced(&keep);
        let cds = compute_cds(&CdsInput::new(&g), &CdsConfig::policy(Policy::Degree));
        let alive = vec![true; g.n()];
        let mut dp = Dataplane::new();
        dp.install_tables(&cds, &alive);

        dp.inject_broadcast(0, true);
        dp.pump(&g, &alive);
        let blind = dp.last_flood().unwrap();
        assert_eq!(blind, flood_cost(&g, 0, None));

        dp.inject_broadcast(0, false);
        let stats = dp.pump(&g, &alive);
        let gateway = dp.last_flood().unwrap();
        assert_eq!(gateway, flood_cost(&g, 0, Some(&cds)));
        assert!(gateway.transmissions <= blind.transmissions);
        assert_eq!(gateway.reached, blind.reached, "same coverage");
        assert_eq!(
            stats.flood_transmissions,
            (blind.transmissions + gateway.transmissions) as u64
        );
        assert_eq!(stats.delivered, 2, "both broadcasts completed");
    }

    #[test]
    #[should_panic(expected = "packets in flight")]
    fn install_tables_refuses_in_flight_packets() {
        let (g, cds) = fig1();
        let alive = vec![true; 5];
        let mut dp = Dataplane::new();
        dp.install_tables(&cds, &alive);
        let f = dp.add_flow(4, 3);
        dp.inject(f, 1);
        let _ = g; // never pumped: the packet sits in the ingress queue
        dp.install_tables(&cds, &alive);
    }

    #[test]
    fn reset_packets_retains_flows_and_stats() {
        let (g, cds) = fig1();
        let alive = vec![true; 5];
        let mut dp = Dataplane::new();
        dp.install_tables(&cds, &alive);
        let f = dp.add_flow(0, 3);
        dp.inject(f, 2);
        let s = dp.pump(&g, &alive);
        dp.reset_packets();
        assert!(dp.packets().is_empty());
        assert_eq!(dp.flow_count(), 1);
        assert_eq!(dp.stats(), s, "stats are cumulative across resets");
        dp.inject(f, 2);
        let s2 = dp.pump(&g, &alive);
        assert_eq!(s2.delivered, s.delivered + 2);
    }
}
