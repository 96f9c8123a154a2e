//! Gateway route tables and the three-step forwarding procedure.
//!
//! The paper's Figure-2 tables give every gateway a row per gateway:
//! distance and next hop within the gateway subgraph. Materialised
//! densely that is `O(gateways × n)` words — tens of gigabytes at
//! n = 10⁵⁻⁶. [`BackboneRoutes`] keeps the same routes as one
//! shortest-distance array *per destination gateway actually in use*:
//! `dist[u]` is the hop distance from `u` to the destination within the
//! live gateway subgraph. `O(n)` words per active destination, built
//! lazily and kept across installs.
//!
//! [`BackboneRoutes::assemble`] runs the paper's three-step procedure:
//! member → source gateway → gateway walk → destination. Each walk step
//! takes the smallest-id neighbour one hop closer (rows are sorted, so
//! the scan stops at the first hit). A route is therefore a function of
//! the graph and the live backbone alone: a repaired array, a fresh
//! build and the dense reference tables in `pacds-testkit` give the same
//! path.
//!
//! Staleness model: the masks are snapshots taken at
//! [`BackboneRoutes::install`] — the control plane's view. A node that
//! dies afterwards is still routed through until the next install (churn
//! refresh), which is exactly the window the dataplane's per-hop liveness
//! check + NACK closes.
//!
//! Repair instead of rebuild: `install` diffs the new masks against the
//! installed ones and keeps the list of hosts whose live-gateway bit
//! flipped. An array exact for the previous install is repaired on its
//! next use, at a cost that follows that list, not the backbone:
//!
//! * every host that left is cut off the tree, and so is every host left
//!   with no neighbour one hop closer — checked for each neighbour one hop
//!   farther of a cut host, and for each host whose degree fell (a dead
//!   host's row is empty, so its former neighbours are found that way);
//! * the cut hosts still live and every host that joined enter at their
//!   best remaining neighbour, and a BFS run in increasing distance
//!   settles the rest, lowering only where a distance shrinks.
//!
//! Full builds and repairs share that settle pass; a build is a settle
//! seeded with the destination alone. An array is rebuilt in full when it
//! is two or more installs old (the flip list only spans one), when the
//! cut passes `1 / REBUILD_DIVISOR` of the live backbone, or when its
//! destination left the backbone. (A destination that left is not routed
//! to until it returns, by which time its array is two installs old.)

use pacds_graph::{Graph, NodeId};
use pacds_obs::{obs_count, obs_time, Counter, Phase};

/// Errors from the routing procedure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteError {
    /// An endpoint is out of range.
    OutOfRange,
    /// The source is a non-gateway with no adjacent gateway (the set does
    /// not dominate it).
    SourceNotDominated,
    /// The destination is a non-gateway with no adjacent gateway.
    DestinationNotDominated,
    /// No gateway-only path connects the source and destination gateways
    /// (the gateway set is disconnected, or empty on a non-trivial graph).
    GatewayPathMissing,
    /// The tables reference a node that is no longer alive: a dead
    /// endpoint or a dead chosen gateway. The caller should install fresh
    /// tables (e.g. after a churn refresh) and retry; this is the error
    /// the dataplane's NACK/retransmit path consumes.
    StaleGateway,
}

impl std::fmt::Display for RouteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouteError::OutOfRange => write!(f, "endpoint out of range"),
            RouteError::SourceNotDominated => write!(f, "source has no adjacent gateway"),
            RouteError::DestinationNotDominated => {
                write!(f, "destination has no adjacent gateway")
            }
            RouteError::GatewayPathMissing => write!(f, "gateway subgraph has no path"),
            RouteError::StaleGateway => {
                write!(f, "route references a dead node (stale gateway tables)")
            }
        }
    }
}

impl std::error::Error for RouteError {}

/// Validates that `path` is a walk in `g` (each consecutive pair adjacent).
pub fn is_valid_walk(g: &Graph, path: &[NodeId]) -> bool {
    path.windows(2).all(|w| g.has_edge(w[0], w[1]))
}

/// Convenience: hop count of a routed path (`len - 1`).
pub fn hop_count(path: &[NodeId]) -> usize {
    path.len().saturating_sub(1)
}

/// `dist` of a host off the backbone or cut off from the destination.
const UNREACHED: u32 = u32::MAX;
/// "No tree" in the destination → slot map.
const NONE: u32 = u32::MAX;
/// A repair whose invalidated region holds more than `1 / REBUILD_DIVISOR`
/// of the live backbone gives up for a full build. A repair scans each
/// region host's row about twice (invalidate, then settle), a build each
/// backbone host's row once plus an O(n) reset, so the two meet near one
/// half.
const REBUILD_DIVISOR: usize = 2;

/// A `(dist, host)` work entry.
type Entry = (u32, NodeId);

/// One destination gateway's hop distances over the live gateway
/// subgraph; [`UNREACHED`] = not a live gateway, or cut off from `dest`.
#[derive(Debug, Default)]
struct DestTree {
    dest: NodeId,
    /// The install this array is exact for.
    installed: u64,
    dist: Vec<u32>,
}

impl DestTree {
    /// The next host from on-tree `u` (not `dest`) toward `dest`: its
    /// smallest-id neighbour one hop closer.
    fn next_hop(&self, g: &Graph, u: NodeId) -> NodeId {
        let closer = self.dist[u as usize] - 1;
        *g.neighbors(u)
            .iter()
            .find(|&&w| self.dist[w as usize] == closer)
            .expect("an exact distance array has a neighbour one hop closer")
    }

    /// Whether on-tree `u` (not `dest`) still has a neighbour one hop
    /// closer.
    fn supported(&self, g: &Graph, u: NodeId) -> bool {
        let closer = self.dist[u as usize] - 1;
        g.neighbors(u)
            .iter()
            .any(|&w| self.dist[w as usize] == closer)
    }

    /// Takes on-tree `u` off the tree into `region`.
    fn cut(&mut self, u: NodeId, region: &mut Vec<Entry>) {
        region.push((self.dist[u as usize], u));
        self.dist[u as usize] = UNREACHED;
    }

    /// Propagates the cuts in `region` (each with its old distance): every
    /// on-tree neighbour one hop farther that is left with no neighbour one
    /// hop closer is cut too, so each host is checked when a closer
    /// neighbour goes and cut at most once. Returns `false` as soon as
    /// `region` passes `limit`.
    fn invalidate(&mut self, g: &Graph, region: &mut Vec<Entry>, limit: usize) -> bool {
        let mut i = 0;
        while let Some(&(d, v)) = region.get(i) {
            i += 1;
            for &u in g.neighbors(v) {
                if self.dist[u as usize] == d + 1 && !self.supported(g, u) {
                    self.cut(u, region);
                }
            }
            if region.len() > limit {
                return false;
            }
        }
        true
    }

    /// Enters the off-tree live gateway `v` one hop below its closest
    /// on-tree neighbour, if it has one, and seeds the settle with it.
    fn attach(&mut self, g: &Graph, v: NodeId, seeds: &mut Vec<Entry>) {
        // Every on-tree host is a live gateway: invalidation took the rest.
        let best = g
            .neighbors(v)
            .iter()
            .map(|&w| self.dist[w as usize])
            .min()
            .unwrap_or(UNREACHED);
        if best != UNREACHED {
            self.dist[v as usize] = best + 1;
            seeds.push((best + 1, v));
        }
    }

    /// Settles the array outward from `seeds` — hosts whose `dist` was
    /// just set, so their neighbours' may be too large — in increasing
    /// distance: the sorted seeds merge with the FIFO of hosts lowered
    /// since, whose distances never decrease. Every live neighbour whose
    /// `dist` a shorter path reaches is lowered and queued. A full build
    /// is the case `seeds = [(0, dest)]`.
    fn settle(&mut self, g: &Graph, live: &[bool], seeds: &mut [Entry], queue: &mut Vec<Entry>) {
        seeds.sort_unstable();
        queue.clear();
        let (mut head, mut s) = (0, 0);
        loop {
            let (d, v) = match (queue.get(head), seeds.get(s)) {
                (Some(&q), Some(&e)) if e < q => {
                    s += 1;
                    e
                }
                (Some(&q), _) => {
                    head += 1;
                    q
                }
                (None, Some(&e)) => {
                    s += 1;
                    e
                }
                (None, None) => return,
            };
            if self.dist[v as usize] != d {
                continue; // lowered since it was seeded; queued again then
            }
            for &u in g.neighbors(v) {
                if live[u as usize] && self.dist[u as usize] > d + 1 {
                    self.dist[u as usize] = d + 1;
                    queue.push((d + 1, u));
                }
            }
        }
    }
}

/// Repair scratch shared by every tree; reserved for `n` hosts when an
/// install changes `n`, so repairs never grow it.
#[derive(Debug, Default)]
struct Scratch {
    /// Hosts cut off the tree, with their old distances.
    region: Vec<Entry>,
    /// Settle seeds.
    seeds: Vec<Entry>,
    /// Settle FIFO.
    queue: Vec<Entry>,
}

/// The backbone route tables: gateway + liveness masks plus a pool of
/// lazily-built per-destination distance arrays that survive installs.
/// All storage is retained; once every buffer has hit its high-water
/// mark, `install` + `assemble` perform zero heap allocations.
///
/// ```
/// use pacds_graph::Graph;
/// use pacds_routing::BackboneRoutes;
/// // Figure 1: u=0, v=1, w=2, x=3, y=4 with gateways {v, w}.
/// let g = Graph::from_edges(5, &[(0, 1), (0, 4), (1, 2), (1, 4), (2, 3)]);
/// let mut routes = BackboneRoutes::new();
/// routes.install(&[false, true, true, false, false], &[true; 5]);
/// let mut path = Vec::new();
/// routes.assemble(&g, 4, 3, &mut path).unwrap();
/// assert_eq!(path, vec![4, 1, 2, 3]);
/// ```
#[derive(Debug, Default)]
pub struct BackboneRoutes {
    n: usize,
    gateway: Vec<bool>,
    alive: Vec<bool>,
    /// `gateway && alive`: the backbone the trees span.
    live: Vec<bool>,
    /// Hosts set in `live`.
    live_count: usize,
    /// Hosts whose `live` bit flipped at the last install.
    changed: Vec<NodeId>,
    /// Installs so far; the table epoch is its low 32 bits.
    installs: u64,
    /// Every host's degree at the install the tables were last used at.
    degree: Vec<u32>,
    /// The install `degree` was taken at.
    observed: u64,
    /// Hosts whose degree fell between the last two observed installs:
    /// the former neighbours of hosts that died, whose own rows are gone.
    lost_edge: Vec<NodeId>,
    /// Dense destination → tree-slot map; [`NONE`] = no tree.
    slot_of: Vec<u32>,
    trees: Vec<DestTree>,
    /// Full builds and repairs since the last install.
    built: usize,
    repaired: usize,
    scratch: Scratch,
}

impl BackboneRoutes {
    /// Empty tables; [`Self::install`] must run before [`Self::assemble`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs a new epoch of tables from the control plane's gateway
    /// and liveness masks (snapshot copies), and records which hosts
    /// joined or left the live backbone since the previous install. Cached
    /// trees stay; each is repaired from that list on its next use.
    ///
    /// Precondition for the repair: between two installs the graph only
    /// loses edges — hosts may die (their edges go) and any host may join
    /// or leave the backbone, but no edge appears. A caller whose hosts
    /// move installs into fresh tables instead.
    ///
    /// Costs one O(n) sequential compare of the masks on top of their
    /// copy, and the first use after it one O(n) pass over the degrees.
    ///
    /// # Panics
    /// Panics if the masks differ in length.
    pub fn install(&mut self, gateway: &[bool], alive: &[bool]) {
        assert_eq!(gateway.len(), alive.len());
        let n = gateway.len();
        self.changed.clear();
        if n != self.n {
            // Every cached tree becomes unreachable; `claim` recycles them.
            self.n = n;
            self.slot_of.clear();
            self.slot_of.resize(n, NONE);
            self.live.clear();
            self.live.resize(n, false);
            self.live_count = 0;
            self.degree.clear();
            self.changed.reserve(n);
            self.lost_edge.reserve(n);
            let s = &mut self.scratch;
            s.region.reserve(n);
            s.seeds.reserve(n);
            s.queue.reserve(n);
        }
        const CHUNK: usize = 64;
        let mut now = [false; CHUNK];
        let chunks = gateway.chunks(CHUNK).zip(alive.chunks(CHUNK));
        for (c, ((gw, al), old)) in chunks.zip(self.live.chunks_mut(CHUNK)).enumerate() {
            let now = &mut now[..gw.len()];
            for ((b, &g), &a) in now.iter_mut().zip(gw).zip(al) {
                *b = g & a;
            }
            if *now != *old {
                for (i, (o, &b)) in old.iter_mut().zip(now.iter()).enumerate() {
                    if *o != b {
                        *o = b;
                        self.changed.push((c * CHUNK + i) as NodeId);
                    }
                }
            }
        }
        let joined = self
            .changed
            .iter()
            .filter(|&&v| self.live[v as usize])
            .count();
        self.live_count = self.live_count + joined - (self.changed.len() - joined);
        self.gateway.clear();
        self.gateway.extend_from_slice(gateway);
        self.alive.clear();
        self.alive.extend_from_slice(alive);
        self.installs += 1;
        self.built = 0;
        self.repaired = 0;
    }

    /// The current table epoch; bumped by every [`Self::install`]. Flow
    /// caches compare this to decide whether a cached route is current.
    pub fn epoch(&self) -> u32 {
        self.installs as u32
    }

    /// Number of nodes the installed tables cover.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The installed gateway mask (the control plane's snapshot); the
    /// dataplane's flood node uses this as the relay set for gateway
    /// broadcast.
    pub fn gateway_mask(&self) -> &[bool] {
        &self.gateway
    }

    /// Destination trees built in full (BFS over the whole backbone) since
    /// the last install: first use of a destination, or a tree that could
    /// not be repaired.
    pub fn trees_built(&self) -> usize {
        self.built
    }

    /// Destination trees repaired in place since the last install.
    pub fn trees_repaired(&self) -> usize {
        self.repaired
    }

    /// Destination gateways that have a cached tree, of any age.
    pub fn cached_destinations(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.trees
            .iter()
            .enumerate()
            .filter(|&(s, t)| self.slot_of.get(t.dest as usize) == Some(&(s as u32)))
            .map(|(_, t)| t.dest)
    }

    /// Hop distances from every host to the live gateway `dg` within the
    /// installed live backbone (`u32::MAX`: off the backbone or cut off
    /// from `dg`), from `dg`'s tree — repaired or built first if stale.
    /// `None` if `dg` is not a live gateway.
    pub fn distances(&mut self, g: &Graph, dg: NodeId) -> Option<&[u32]> {
        if !self.live.get(dg as usize).copied().unwrap_or(false) {
            return None;
        }
        let slot = self.tree_slot(g, dg);
        Some(&self.trees[slot].dist)
    }

    /// The gateway whose domain contains `v`: itself for gateways, else
    /// the smallest-id adjacent gateway; `None` if `v` is undominated.
    pub fn gateway_of(&self, g: &Graph, v: NodeId) -> Option<NodeId> {
        if self.gateway[v as usize] {
            return Some(v);
        }
        g.neighbors(v)
            .iter()
            .copied()
            .find(|&u| self.gateway[u as usize])
    }

    /// Returns the tree slot for destination gateway `dg`, current for
    /// this install: cached, repaired, or built. `dg` must be a live
    /// gateway.
    fn tree_slot(&mut self, g: &Graph, dg: NodeId) -> usize {
        self.observe(g);
        let slot = match self.slot_of[dg as usize] {
            NONE => {
                let slot = self.claim(dg);
                self.build(g, slot);
                return slot;
            }
            s => s as usize,
        };
        match self.installs - self.trees[slot].installed {
            0 => {}
            1 if self.repair(g, slot) => {
                obs_count!(Counter::DpRouteRepairs);
                self.repaired += 1;
            }
            _ => self.build(g, slot),
        }
        slot
    }

    /// On the first use after an install, lists the hosts whose degree
    /// fell since the install last observed (a repair's only way to the
    /// neighbours of a host that died: its row is empty now) and takes
    /// the degrees for this one.
    fn observe(&mut self, g: &Graph) {
        if self.observed == self.installs {
            return;
        }
        self.observed = self.installs;
        self.lost_edge.clear();
        if self.degree.len() != self.n {
            self.degree.clear();
            self.degree
                .extend((0..self.n as NodeId).map(|v| g.degree(v) as u32));
            return;
        }
        for (v, d) in self.degree.iter_mut().enumerate() {
            let now = g.degree(v as NodeId) as u32;
            if now < *d {
                self.lost_edge.push(v as NodeId);
            }
            *d = now;
        }
    }

    /// A pool slot for `dg`'s first tree: one whose tree is two or more
    /// installs old (it can no longer be repaired) or orphaned by a size
    /// change, else a new one.
    fn claim(&mut self, dg: NodeId) -> usize {
        let free = (0..self.trees.len()).find(|&s| {
            let t = &self.trees[s];
            self.installs - t.installed >= 2
                || self.slot_of.get(t.dest as usize) != Some(&(s as u32))
        });
        let slot = free.unwrap_or_else(|| {
            self.trees.push(DestTree::default());
            self.trees.len() - 1
        });
        let old = self.trees[slot].dest as usize;
        if self.slot_of.get(old) == Some(&(slot as u32)) {
            self.slot_of[old] = NONE;
        }
        self.slot_of[dg as usize] = slot as u32;
        self.trees[slot].dest = dg;
        slot
    }

    /// Builds `slot`'s tree from scratch over the live backbone.
    fn build(&mut self, g: &Graph, slot: usize) {
        obs_time!(_t, Phase::DpRouteBuild);
        obs_count!(Counter::DpRouteBuilds);
        self.built += 1;
        let t = &mut self.trees[slot];
        t.dist.clear();
        t.dist.resize(self.n, UNREACHED);
        t.dist[t.dest as usize] = 0;
        t.installed = self.installs;
        let Scratch { seeds, queue, .. } = &mut self.scratch;
        seeds.clear();
        seeds.push((0, t.dest));
        t.settle(g, &self.live, seeds, queue);
    }

    /// Brings `slot`'s tree, exact for the previous install, up to this
    /// one from the `changed` list. Returns `false`, leaving the tree
    /// half-repaired for [`Self::build`], when the destination left the
    /// backbone or the invalidated region passes `1 / REBUILD_DIVISOR` of
    /// the live backbone.
    fn repair(&mut self, g: &Graph, slot: usize) -> bool {
        obs_time!(_t, Phase::DpRouteRepair);
        let t = &mut self.trees[slot];
        let Scratch {
            region,
            seeds,
            queue,
        } = &mut self.scratch;
        // Cut the hosts that left, then every host that lost an edge and
        // with it its last neighbour one hop closer; the cuts propagate
        // from there.
        region.clear();
        for &x in &self.changed {
            if !self.live[x as usize] && t.dist[x as usize] != UNREACHED {
                if x == t.dest {
                    return false;
                }
                t.cut(x, region);
            }
        }
        for &u in &self.lost_edge {
            let d = t.dist[u as usize];
            if d != UNREACHED && d != 0 && !t.supported(g, u) {
                t.cut(u, region);
            }
        }
        if !t.invalidate(g, region, self.live_count / REBUILD_DIVISOR) {
            return false;
        }
        // The region's live gateways and the hosts that joined enter at
        // their best valid neighbour; settling from there fixes the rest.
        seeds.clear();
        for &v in region.iter().map(|(_, v)| v).chain(&self.changed) {
            if self.live[v as usize] && t.dist[v as usize] == UNREACHED {
                t.attach(g, v, seeds);
            }
        }
        t.settle(g, &self.live, seeds, queue);
        t.installed = self.installs;
        true
    }

    /// Assembles the three-step source route `src → dst` into `out`
    /// (cleared first):
    ///
    /// * Step 1 — a non-gateway source hands the packet to its source
    ///   gateway ([`Self::gateway_of`]);
    /// * Step 2 — the packet walks the live gateway subgraph, each hop to
    ///   the smallest-id neighbour one hop closer to the destination
    ///   gateway;
    /// * Step 3 — the destination gateway delivers to the destination.
    ///
    /// Direct neighbours short-circuit: if `dst ∈ N(src)` the packet is
    /// handed over in one hop without entering the overlay. Dead endpoints
    /// or dead chosen gateways yield [`RouteError::StaleGateway`]; a live
    /// backbone with no path between the two gateways yields
    /// [`RouteError::GatewayPathMissing`].
    pub fn assemble(
        &mut self,
        g: &Graph,
        src: NodeId,
        dst: NodeId,
        out: &mut Vec<NodeId>,
    ) -> Result<(), RouteError> {
        out.clear();
        if (src as usize) >= self.n || (dst as usize) >= self.n {
            return Err(RouteError::OutOfRange);
        }
        if !self.alive[src as usize] || !self.alive[dst as usize] {
            return Err(RouteError::StaleGateway);
        }
        if src == dst {
            out.push(src);
            return Ok(());
        }
        if g.has_edge(src, dst) {
            out.push(src);
            out.push(dst);
            return Ok(());
        }

        let sg = self
            .gateway_of(g, src)
            .ok_or(RouteError::SourceNotDominated)?;
        let dg = self
            .gateway_of(g, dst)
            .ok_or(RouteError::DestinationNotDominated)?;
        if !self.alive[sg as usize] || !self.alive[dg as usize] {
            return Err(RouteError::StaleGateway);
        }

        let slot = self.tree_slot(g, dg);
        let tree = &self.trees[slot];
        if tree.dist[sg as usize] == UNREACHED {
            return Err(RouteError::GatewayPathMissing);
        }
        out.push(src);
        if sg != src {
            out.push(sg);
        }
        let mut cur = sg;
        while cur != dg {
            cur = tree.next_hop(g, cur);
            out.push(cur);
        }
        if dg != dst {
            out.push(dst);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pacds_core::{compute_cds, CdsConfig, CdsInput, Policy};
    use pacds_graph::{gen, Graph};

    fn fig1() -> (Graph, Vec<bool>) {
        let g = Graph::from_edges(5, &[(0, 1), (0, 4), (1, 2), (1, 4), (2, 3)]);
        let cds = compute_cds(&CdsInput::new(&g), &CdsConfig::policy(Policy::Id));
        (g, cds)
    }

    #[test]
    fn figure1_route_matches_the_paper() {
        let (g, cds) = fig1();
        let mut br = BackboneRoutes::new();
        br.install(&cds, &[true; 5]);
        let mut out = Vec::new();
        br.assemble(&g, 4, 3, &mut out).unwrap();
        assert_eq!(out, vec![4, 1, 2, 3]);
        assert!(is_valid_walk(&g, &out));
        br.assemble(&g, 0, 4, &mut out).unwrap();
        assert_eq!(out, vec![0, 4], "direct neighbours bypass the overlay");
        br.assemble(&g, 3, 3, &mut out).unwrap();
        assert_eq!(out, vec![3]);
        br.assemble(&g, 1, 3, &mut out).unwrap();
        assert_eq!(out, vec![1, 2, 3], "a gateway source skips step 1");
    }

    #[test]
    fn assemble_reuses_the_buffer() {
        let (g, cds) = fig1();
        let mut br = BackboneRoutes::new();
        br.install(&cds, &[true; 5]);
        let mut buf = vec![9, 9, 9, 9, 9, 9];
        br.assemble(&g, 4, 3, &mut buf).unwrap();
        assert_eq!(buf, vec![4, 1, 2, 3]);
        br.assemble(&g, 0, 4, &mut buf).unwrap();
        assert_eq!(buf, vec![0, 4]);
    }

    #[test]
    fn error_taxonomy() {
        // Path 0-1-2 plus isolated 3.
        let g = Graph::from_edges(4, &[(0, 1), (1, 2)]);
        let gw = vec![false, true, false, false];
        let mut br = BackboneRoutes::new();
        br.install(&gw, &[true; 4]);
        let mut out = Vec::new();
        assert_eq!(
            br.assemble(&g, 3, 0, &mut out),
            Err(RouteError::SourceNotDominated)
        );
        assert_eq!(
            br.assemble(&g, 0, 3, &mut out),
            Err(RouteError::DestinationNotDominated)
        );
        assert_eq!(br.assemble(&g, 0, 9, &mut out), Err(RouteError::OutOfRange));

        // Dead destination gateway → stale.
        let (g, cds) = fig1();
        let mut alive = vec![true; 5];
        alive[2] = false;
        br.install(&cds, &alive);
        assert_eq!(
            br.assemble(&g, 4, 3, &mut out),
            Err(RouteError::StaleGateway)
        );
        assert!(out.is_empty(), "a failed route must not leak partial hops");

        // Path 0-1-2-3-4-5 with gateways {1, 4}: dominating, but the
        // backbone is disconnected.
        let g = gen::path(6);
        br.install(&[false, true, false, false, true, false], &[true; 6]);
        assert_eq!(
            br.assemble(&g, 0, 5, &mut out),
            Err(RouteError::GatewayPathMissing)
        );
    }

    #[test]
    fn install_repairs_the_tree_and_reroutes() {
        // Cycle C6, all gateways: 0 -> 3 takes the smaller-id way round.
        let g = gen::cycle(6);
        let gw = vec![true; 6];
        let mut br = BackboneRoutes::new();
        br.install(&gw, &[true; 6]);
        let mut out = Vec::new();
        br.assemble(&g, 0, 3, &mut out).unwrap();
        assert_eq!(out, vec![0, 1, 2, 3]);
        assert_eq!(br.trees_built(), 1);
        // Kill node 1: the control plane refreshes, and the new tables
        // must route the long way round, never through 1.
        let alive = vec![true, false, true, true, true, true];
        let epoch = br.epoch();
        br.install(&gw, &alive);
        assert_ne!(br.epoch(), epoch);
        assert_eq!(br.trees_built(), 0);
        br.assemble(&g, 0, 3, &mut out).unwrap();
        assert_eq!(out, vec![0, 5, 4, 3]);
        assert_eq!((br.trees_built(), br.trees_repaired()), (0, 1));
    }

    #[test]
    fn an_alternative_supporter_keeps_a_host_valid() {
        // Ladder 2×3 (top 0,1,2; bottom 3,4,5; rungs i–i+3), all gateways,
        // destination 0. Host 4 is two hops out through 1 or 3; losing 1
        // leaves 4 supported by 3, so only 1 and 2 change.
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)]);
        let mut gw = vec![true; 6];
        let mut br = BackboneRoutes::new();
        br.install(&gw, &[true; 6]);
        assert_eq!(br.distances(&g, 0).unwrap(), [0, 1, 2, 1, 2, 3]);
        gw[1] = false;
        br.install(&gw, &[true; 6]);
        assert_eq!(br.distances(&g, 0).unwrap(), [0, UNREACHED, 4, 1, 2, 3]);
        assert_eq!((br.trees_built(), br.trees_repaired()), (0, 1));
        assert_eq!(br.scratch.region, [(1, 1), (2, 2)], "4 kept its distance");
    }

    #[test]
    fn a_dead_hosts_former_neighbours_are_found_by_their_degree() {
        // The same ladder, but 1 dies and its edges go: its row is empty,
        // so 2 (whose only closer neighbour was 1) is found through its
        // fallen degree.
        let edges = [(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)];
        let g = Graph::from_edges(6, &edges);
        let mut br = BackboneRoutes::new();
        br.install(&[true; 6], &[true; 6]);
        assert_eq!(br.distances(&g, 0).unwrap(), [0, 1, 2, 1, 2, 3]);
        let without_1: Vec<_> = edges
            .iter()
            .copied()
            .filter(|&(a, b)| a != 1 && b != 1)
            .collect();
        let g = Graph::from_edges(6, &without_1);
        let alive = [true, false, true, true, true, true];
        br.install(&[true; 6], &alive);
        assert_eq!(br.distances(&g, 0).unwrap(), [0, UNREACHED, 4, 1, 2, 3]);
        assert_eq!(br.lost_edge, [0, 1, 2, 4], "1 itself and its neighbours");
        assert_eq!((br.trees_built(), br.trees_repaired()), (0, 1));
        let mut out = Vec::new();
        br.assemble(&g, 2, 0, &mut out).unwrap();
        assert_eq!(out, [2, 5, 4, 3, 0]);
    }

    #[test]
    fn stale_trees_rebuild_and_big_cuts_give_up() {
        // Path 0-1-2-...-9, all gateways; the tree to 0 is a chain.
        let g = gen::path(10);
        let mut gw = vec![true; 10];
        let mut br = BackboneRoutes::new();
        br.install(&gw, &[true; 10]);
        assert_eq!(br.distances(&g, 0).unwrap()[9], 9);
        assert_eq!((br.trees_built(), br.trees_repaired()), (1, 0));
        // Demoting 9 cuts one host of ten: repaired.
        gw[9] = false;
        br.install(&gw, &[true; 10]);
        assert_eq!(br.distances(&g, 0).unwrap()[9], UNREACHED);
        assert_eq!((br.trees_built(), br.trees_repaired()), (0, 1));
        // Promoting it again relaxes outward from it.
        gw[9] = true;
        br.install(&gw, &[true; 10]);
        assert_eq!(br.distances(&g, 0).unwrap()[9], 9);
        assert_eq!((br.trees_built(), br.trees_repaired()), (0, 1));
        // Demoting 3 cuts 3..=9, more than half of the backbone: rebuilt.
        gw[3] = false;
        br.install(&gw, &[true; 10]);
        assert_eq!(
            br.distances(&g, 0).unwrap()[2..5],
            [2, UNREACHED, UNREACHED]
        );
        assert_eq!((br.trees_built(), br.trees_repaired()), (1, 0));
        // Two installs with no use between: the tree is two installs old.
        gw[3] = true;
        br.install(&gw, &[true; 10]);
        br.install(&gw, &[true; 10]);
        assert_eq!(br.distances(&g, 0).unwrap()[9], 9);
        assert_eq!((br.trees_built(), br.trees_repaired()), (1, 0));
    }

    #[test]
    fn live_count_follows_the_flips() {
        let mut br = BackboneRoutes::new();
        br.install(&[true, true, false, true], &[true; 4]);
        assert_eq!(br.live_count, 3);
        br.install(&[false, true, true, true], &[true, true, true, false]);
        assert_eq!(br.live_count, 2);
        br.install(&[true; 3], &[true; 3]);
        assert_eq!(br.live_count, 3, "a size change starts from empty");
    }
}
