//! Scalable backbone route tables: per-destination-gateway BFS trees.
//!
//! [`pacds_routing::RoutingState`] materialises the paper's Figure-2
//! tables densely — `O(gateways × n)` words — which is exact and fine at
//! corpus scale but infeasible at n = 10⁵⁻⁶ (tens of gigabytes). The
//! dataplane instead keeps one BFS tree *per destination gateway actually
//! in use*: `dist[u]` is the hop distance from `u` to the destination
//! gateway within the live gateway subgraph, and the tree parent of `u` is
//! the next gateway on such a shortest path. `O(n)` words per active
//! destination, built lazily and kept across installs.
//!
//! [`BackboneRoutes::assemble`] runs the same three-step procedure as
//! [`pacds_routing::route`]: member → source gateway → gateway walk →
//! destination. Routes are shortest within the gateway subgraph, so hop
//! counts match `route()` exactly (the conformance suite pins this); the
//! specific shortest path may differ because the trees are rooted at the
//! destination rather than the source.
//!
//! Staleness model: the masks are snapshots taken at [`BackboneRoutes::
//! install`] — the control plane's view. A node that dies afterwards is
//! still routed through until the next install (churn refresh), which is
//! exactly the window the forward node's liveness check + NACK closes.
//!
//! Repair instead of rebuild: `install` diffs the new masks against the
//! installed ones and keeps the list of hosts whose live-gateway bit
//! flipped. A tree exact for the previous install is repaired on its next
//! use, at a cost that follows that list, not the backbone:
//!
//! * every host that left the backbone takes its subtree with it; the
//!   orphans re-attach through their best surviving neighbour, and a BFS
//!   run in increasing distance settles the region from that boundary;
//! * every host that joined relaxes outward only where it shortens a
//!   distance.
//!
//! Full builds and repairs share the one settle routine ([`DestTree::
//! settle`]); a build is a settle seeded with the destination alone. A
//! tree is rebuilt in full when it is two or more installs old (the flip
//! list only spans one), when the invalidated region passes
//! `1 / REBUILD_DIVISOR` of the tree, or when its destination left the
//! backbone. (A destination that left is not routed to until it returns,
//! by which time its tree is two installs old.)

use pacds_graph::{Neighbors, NodeId};
use pacds_obs::{obs_count, obs_time, Counter, Phase};
use pacds_routing::RouteError;

/// `dist` of a host off the tree: not a live gateway, or cut off from the
/// destination.
const UNREACHED: u32 = u32::MAX;
/// "No host" in the child links and the destination → slot map.
const NONE: u32 = u32::MAX;
/// Tags [`Link::next`] of a parent's last child: the low bits are then
/// the parent, not a sibling. Host ids must stay below this bit.
const UP: u32 = 1 << 31;
/// A repair whose invalidated region holds more than `1 / REBUILD_DIVISOR`
/// of the tree's hosts gives up for a full build. A repair scans each
/// region host's row about twice (attach, then settle), a build each tree
/// host's row once plus an O(n) reset, so the two meet near one half. At
/// n = 10⁵ a kill that cut a quarter of a tree rerouted in 21–27 ms
/// repaired against 31–40 ms rebuilt.
const REBUILD_DIVISOR: usize = 2;

/// A host's place among its tree's child lists: the first of its own
/// children, and the next of its parent's (threaded: the last child
/// points back up to the parent, so one array carries both directions).
#[derive(Debug, Clone, Copy)]
struct Link {
    child: NodeId,
    next: u32,
}

/// One destination gateway's shortest-path tree over the live gateway
/// subgraph.
#[derive(Debug, Default)]
struct DestTree {
    dest: NodeId,
    /// The install this tree is exact for.
    installed: u64,
    /// Hosts with a finite `dist`, the destination included.
    reached: usize,
    /// Hop distance from each gateway to `dest` within the gateway
    /// subgraph; [`UNREACHED`] = unreachable or not a live gateway.
    dist: Vec<u32>,
    /// Child lists; meaningful only where `dist` is finite.
    links: Vec<Link>,
}

impl DestTree {
    /// The tree parent of `u` (`dest` for `dest`): one hop closer to `dest`.
    fn parent(&self, u: NodeId) -> NodeId {
        let mut w = self.links[u as usize].next;
        while w & UP == 0 {
            w = self.links[w as usize].next;
        }
        w & !UP
    }

    /// Puts `u` at the head of `p`'s child list.
    fn link(&mut self, u: NodeId, p: NodeId) {
        let first = self.links[p as usize].child;
        self.links[u as usize].next = if first == NONE { UP | p } else { first };
        self.links[p as usize].child = u;
    }

    /// Takes `u` (not `dest`) out of its parent's child list.
    fn unlink(&mut self, u: NodeId) {
        let p = self.parent(u);
        let after = self.links[u as usize].next;
        let first = self.links[p as usize].child;
        if first == u {
            self.links[p as usize].child = if after & UP == 0 { after } else { NONE };
            return;
        }
        let mut w = first;
        while self.links[w as usize].next != u {
            w = self.links[w as usize].next;
        }
        self.links[w as usize].next = after;
    }

    /// Enters the off-tree host `u` at distance `d` below `p`.
    fn join(&mut self, u: NodeId, p: NodeId, d: u32) {
        self.dist[u as usize] = d;
        self.links[u as usize].child = NONE;
        self.link(u, p);
        self.reached += 1;
    }

    /// Cuts the subtree under `x` off the tree, appending its hosts to
    /// `region`. Returns `false` as soon as `region` passes `limit`.
    fn cut_subtree(&mut self, x: NodeId, region: &mut Vec<NodeId>, limit: usize) -> bool {
        self.unlink(x);
        let mut i = region.len();
        region.push(x);
        while i < region.len() {
            let v = region[i] as usize;
            i += 1;
            self.dist[v] = UNREACHED;
            let mut c = self.links[v].child;
            while c != NONE {
                region.push(c);
                let next = self.links[c as usize].next;
                c = if next & UP == 0 { next } else { NONE };
            }
            if region.len() > limit {
                return false;
            }
        }
        true
    }

    /// Enters the off-tree live gateway `v` below its nearest on-tree
    /// neighbour, if it has one, and queues it as a settle seed.
    fn attach<G: Neighbors>(&mut self, g: &G, v: NodeId, seeds: &mut Vec<(u32, NodeId)>) {
        // Every on-tree host is a live gateway: the cuts took the rest.
        let (mut best, mut via) = (UNREACHED, NONE);
        for &w in g.neighbors(v) {
            if self.dist[w as usize] < best {
                (best, via) = (self.dist[w as usize], w);
            }
        }
        if best != UNREACHED {
            self.join(v, via, best + 1);
            seeds.push((best + 1, v));
        }
    }

    /// Settles the tree outward from `seeds` — `(dist, host)` of hosts
    /// whose `dist` was just set, so their neighbours' may be too large —
    /// in increasing distance: the sorted seeds merge with the FIFO of
    /// hosts settled since, whose distances never decrease. Every live
    /// gateway whose `dist` shrinks is re-hung below the host that
    /// shortened it. A full build is the case `seeds = [(0, dest)]`.
    fn settle<G: Neighbors>(
        &mut self,
        g: &G,
        live: &[bool],
        seeds: &mut [(u32, NodeId)],
        queue: &mut Vec<NodeId>,
    ) {
        seeds.sort_unstable();
        queue.clear();
        let (mut head, mut s) = (0, 0);
        loop {
            let from_queue = head < queue.len()
                && seeds
                    .get(s)
                    .is_none_or(|&(d, _)| self.dist[queue[head] as usize] <= d);
            let v = if from_queue {
                head += 1;
                queue[head - 1]
            } else if let Some(&(d, v)) = seeds.get(s) {
                s += 1;
                if self.dist[v as usize] != d {
                    continue; // shortened since it was seeded; queued again then
                }
                v
            } else {
                break;
            };
            let du = self.dist[v as usize] + 1;
            for &u in g.neighbors(v) {
                let ui = u as usize;
                if live[ui] && self.dist[ui] > du {
                    if self.dist[ui] == UNREACHED {
                        self.join(u, v, du);
                    } else {
                        self.unlink(u);
                        self.dist[ui] = du;
                        self.link(u, v);
                    }
                    queue.push(u);
                }
            }
        }
    }
}

/// Repair scratch shared by every tree; reserved for `n` hosts when an
/// install changes `n`, so repairs never grow it.
#[derive(Debug, Default)]
struct Scratch {
    /// Hosts cut off the tree under the hosts that left the backbone.
    region: Vec<NodeId>,
    /// Settle seeds, `(dist, host)`.
    seeds: Vec<(u32, NodeId)>,
    /// Settle FIFO.
    queue: Vec<NodeId>,
}

/// The dataplane's routing tables: gateway + liveness masks plus a pool
/// of lazily-built [`DestTree`]s that survive installs. All storage is
/// retained; once every buffer has hit its high-water mark, `install` +
/// `assemble` perform zero heap allocations.
#[derive(Debug, Default)]
pub struct BackboneRoutes {
    n: usize,
    gateway: Vec<bool>,
    alive: Vec<bool>,
    /// `gateway && alive`: the backbone the trees span.
    live: Vec<bool>,
    /// Hosts whose `live` bit flipped at the last install.
    changed: Vec<NodeId>,
    /// Installs so far; the table epoch is its low 32 bits.
    installs: u64,
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
    /// Precondition for the repair: between two installs, adjacency among
    /// the hosts alive at both stays the same — hosts may die (their edges
    /// go) or appear (their edges are new), but not move. Every caller in
    /// this repository meets it: [`crate::ChurnNet`] only kills, and the
    /// other callers route over a fixed graph. A caller whose hosts move
    /// must install the new masks twice in a row: every tree is then two
    /// installs old and is rebuilt on its next use.
    ///
    /// Costs one O(n) sequential compare of the masks on top of their copy.
    ///
    /// # Panics
    /// Panics if the masks differ in length or `n ≥ 2³¹`.
    pub fn install(&mut self, gateway: &[bool], alive: &[bool]) {
        assert_eq!(gateway.len(), alive.len());
        let n = gateway.len();
        assert!(n < UP as usize, "host ids must fit in 31 bits");
        self.changed.clear();
        if n != self.n {
            // Every cached tree becomes unreachable; `claim` recycles them.
            self.n = n;
            self.slot_of.clear();
            self.slot_of.resize(n, NONE);
            self.live.clear();
            self.live.resize(n, false);
            self.changed.reserve(n);
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
    /// flood node uses this as the relay set for gateway broadcast.
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
    pub fn distances<G: Neighbors>(&mut self, g: &G, dg: NodeId) -> Option<&[u32]> {
        if !self.live.get(dg as usize).copied().unwrap_or(false) {
            return None;
        }
        let slot = self.tree_slot(g, dg);
        Some(&self.trees[slot].dist)
    }

    /// The gateway whose domain contains `v`: itself for gateways, else
    /// the smallest-id adjacent gateway (the same choice
    /// [`pacds_routing::RoutingState::gateway_of`] makes).
    pub fn gateway_of<G: Neighbors>(&self, g: &G, v: NodeId) -> Option<NodeId> {
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
    fn tree_slot<G: Neighbors>(&mut self, g: &G, dg: NodeId) -> usize {
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
    fn build<G: Neighbors>(&mut self, g: &G, slot: usize) {
        obs_time!(_t, Phase::DpRouteBuild);
        obs_count!(Counter::DpRouteBuilds);
        self.built += 1;
        let n = self.n;
        let t = &mut self.trees[slot];
        let dg = t.dest;
        t.dist.clear();
        t.dist.resize(n, UNREACHED);
        t.links.resize(
            n,
            Link {
                child: NONE,
                next: NONE,
            },
        );
        t.dist[dg as usize] = 0;
        t.links[dg as usize] = Link {
            child: NONE,
            next: UP | dg,
        };
        t.reached = 1;
        t.installed = self.installs;
        let Scratch { seeds, queue, .. } = &mut self.scratch;
        seeds.clear();
        seeds.push((0, dg));
        t.settle(g, &self.live, seeds, queue);
    }

    /// Brings `slot`'s tree, exact for the previous install, up to this
    /// one from the `changed` list. Returns `false`, leaving the tree
    /// half-repaired for [`Self::build`], when the destination left the
    /// backbone or the invalidated region passes `1 / REBUILD_DIVISOR` of
    /// the tree.
    fn repair<G: Neighbors>(&mut self, g: &G, slot: usize) -> bool {
        obs_time!(_t, Phase::DpRouteRepair);
        let t = &mut self.trees[slot];
        let Scratch {
            region,
            seeds,
            queue,
        } = &mut self.scratch;
        let limit = t.reached / REBUILD_DIVISOR;
        region.clear();
        for &x in &self.changed {
            if self.live[x as usize] || t.dist[x as usize] == UNREACHED {
                continue; // joined, or left from off the tree
            }
            if x == t.dest || !t.cut_subtree(x, region, limit) {
                return false;
            }
        }
        t.reached -= region.len();
        // The region's live gateways and the hosts that joined enter at
        // their best on-tree neighbour; settling from there fixes the rest.
        seeds.clear();
        for &v in region.iter().chain(&self.changed) {
            if self.live[v as usize] && t.dist[v as usize] == UNREACHED {
                t.attach(g, v, seeds);
            }
        }
        t.settle(g, &self.live, seeds, queue);
        t.installed = self.installs;
        true
    }

    /// Assembles the three-step source route `src → dst` into `out`
    /// (cleared first). Error taxonomy matches
    /// [`pacds_routing::route_alive_into`]: dead endpoints or dead chosen
    /// gateways yield [`RouteError::StaleGateway`], a disconnected live
    /// backbone yields [`RouteError::GatewayPathMissing`].
    pub fn assemble<G: Neighbors>(
        &mut self,
        g: &G,
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
            cur = tree.parent(cur);
            out.push(cur);
        }
        if dg != dst {
            out.push(dst);
        }
        Ok(())
    }

    /// Whether every hop of `path` is alive under the *installed* masks
    /// (the control plane's view; used by tests and self-checks).
    pub fn path_alive(&self, path: &[NodeId]) -> bool {
        path.iter().all(|&v| self.alive[v as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pacds_core::{compute_cds, CdsConfig, CdsInput, Policy};
    use pacds_graph::{gen, Graph};
    use pacds_routing::{hop_count, is_valid_walk, route, RoutingState};
    use rand::{Rng, SeedableRng};

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
        br.assemble(&g, 0, 4, &mut out).unwrap();
        assert_eq!(out, vec![0, 4], "direct neighbours bypass the overlay");
        br.assemble(&g, 3, 3, &mut out).unwrap();
        assert_eq!(out, vec![3]);
    }

    #[test]
    fn hop_counts_match_routing_state_on_random_unit_disks() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let bounds = pacds_geom::Rect::paper_arena();
        for _ in 0..8 {
            let pts = pacds_geom::placement::uniform_points(&mut rng, bounds, 50);
            let full = gen::unit_disk(bounds, 25.0, &pts);
            let keep = pacds_graph::algo::largest_component(&full);
            let (g, _) = full.induced(&keep);
            if g.n() < 3 || g.is_complete() {
                continue;
            }
            let cds = compute_cds(&CdsInput::new(&g), &CdsConfig::policy(Policy::Degree));
            let state = RoutingState::build(&g, &cds);
            let mut br = BackboneRoutes::new();
            br.install(&cds, &vec![true; g.n()]);
            let mut out = Vec::new();
            for s in 0..g.n() as NodeId {
                for t in 0..g.n() as NodeId {
                    let reference = route(&g, &state, s, t).unwrap();
                    br.assemble(&g, s, t, &mut out).unwrap();
                    assert!(is_valid_walk(&g, &out), "{s}->{t}: {out:?}");
                    assert_eq!(out.first(), Some(&s));
                    assert_eq!(out.last(), Some(&t));
                    assert_eq!(
                        hop_count(&out),
                        hop_count(&reference),
                        "{s}->{t}: {out:?} vs {reference:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn error_taxonomy_matches_route_alive_into() {
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
    }

    #[test]
    fn install_invalidates_trees_and_reroutes() {
        // Cycle C6, all gateways: 0 -> 3 can go either way (3 hops).
        let g = gen::cycle(6);
        let gw = vec![true; 6];
        let mut br = BackboneRoutes::new();
        br.install(&gw, &[true; 6]);
        let mut out = Vec::new();
        br.assemble(&g, 0, 3, &mut out).unwrap();
        assert_eq!(hop_count(&out), 3);
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
        assert!(br.path_alive(&out));
    }

    /// Hop distances to `dg` over the live backbone, by a plain BFS.
    fn fresh_bfs<G: Neighbors>(g: &G, live: &[bool], dg: NodeId) -> Vec<u32> {
        let mut dist = vec![UNREACHED; live.len()];
        let mut queue = std::collections::VecDeque::from([dg]);
        dist[dg as usize] = 0;
        while let Some(v) = queue.pop_front() {
            for &u in g.neighbors(v) {
                if live[u as usize] && dist[u as usize] == UNREACHED {
                    dist[u as usize] = dist[v as usize] + 1;
                    queue.push_back(u);
                }
            }
        }
        dist
    }

    /// Every cached, current tree is a shortest-path tree of the live
    /// backbone: `dist` equals a fresh BFS, each parent is an adjacent
    /// live gateway one hop closer, each host sits in exactly its parent's
    /// child list, and `reached` counts the tree.
    fn check_trees<G: Neighbors>(br: &mut BackboneRoutes, g: &G) {
        let dests: Vec<NodeId> = br.cached_destinations().collect();
        for dg in dests {
            if br.distances(g, dg).is_none() {
                continue;
            }
            let t = &br.trees[br.slot_of[dg as usize] as usize];
            assert_eq!(t.dist, fresh_bfs(g, &br.live, dg), "tree {dg}");
            let mut listed = vec![0u32; br.n];
            for v in 0..br.n as NodeId {
                if t.dist[v as usize] == UNREACHED {
                    continue;
                }
                let mut c = t.links[v as usize].child;
                while c != NONE {
                    listed[c as usize] += 1;
                    assert_eq!(t.parent(c), v, "tree {dg}: {c} listed under {v}");
                    let next = t.links[c as usize].next;
                    c = if next & UP == 0 { next } else { NONE };
                }
                if v != dg {
                    let p = t.parent(v);
                    assert!(
                        g.has_edge(v, p),
                        "tree {dg}: {v}'s parent {p} is not adjacent"
                    );
                    assert_eq!(t.dist[p as usize] + 1, t.dist[v as usize], "tree {dg}: {v}");
                }
            }
            for (v, (&times, &d)) in listed.iter().zip(&t.dist).enumerate() {
                let on = d != UNREACHED && v != dg as usize;
                assert_eq!(times, u32::from(on), "tree {dg}: {v} listed {times}x");
            }
            let reached = t.dist.iter().filter(|&&d| d != UNREACHED).count();
            assert_eq!(t.reached, reached, "tree {dg}");
        }
    }

    #[test]
    fn repaired_trees_equal_fresh_builds_as_hosts_leave_and_join() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        let bounds = pacds_geom::Rect::square(150.0);
        let mut repaired = 0;
        for round in 0..6 {
            let pts = pacds_geom::placement::uniform_points(&mut rng, bounds, 160);
            let g = gen::unit_disk(bounds, 25.0, &pts);
            let n = g.n();
            let mut gw = compute_cds(&CdsInput::new(&g), &CdsConfig::policy(Policy::Degree));
            let mut alive = vec![true; n];
            let mut br = BackboneRoutes::new();
            br.install(&gw, &alive);
            let dests: Vec<NodeId> = (0..n as NodeId)
                .filter(|&v| gw[v as usize])
                .step_by(7)
                .collect();
            for step in 0..30 {
                for &dg in &dests {
                    br.distances(&g, dg);
                }
                check_trees(&mut br, &g);
                // A few hosts die, a few gateways are demoted, a few
                // non-gateways are promoted.
                for _ in 0..rng.random_range(1..4) {
                    let v = rng.random_range(0..n);
                    match rng.random_range(0..3) {
                        0 => alive[v] = false,
                        1 => gw[v] = false,
                        _ => gw[v] = true,
                    }
                }
                br.install(&gw, &alive);
                check_trees(&mut br, &g);
                repaired += br.trees_repaired();
                assert!(
                    br.trees_built() + br.trees_repaired() > 0,
                    "round {round} step {step}"
                );
            }
        }
        assert!(repaired > 100, "repairs ran: {repaired}");
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
        // Demoting 3 cuts 3..=9, more than half of the tree: rebuilt.
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
        check_trees(&mut br, &g);
    }
}
