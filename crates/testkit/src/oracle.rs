//! Brute-force reference implementations ("oracles").
//!
//! Everything here is written straight from the paper's prose with no
//! shared machinery from the production crates: priorities are recomputed
//! per comparison instead of materialised in a [`pacds_core::PriorityKey`]
//! table, coverage is decided by sorted-slice scans instead of
//! [`pacds_graph::NeighborBitmap`] word operations, connectivity uses
//! union-find instead of BFS, and the unit-disk constructor is the O(n²)
//! pairwise loop with its own distance arithmetic, and the gateway route
//! tables are Figure 2's dense per-gateway rows from one BFS per gateway
//! ([`DenseTables`]) instead of repairable per-destination distance
//! arrays. Slow on purpose: if a production optimisation and an oracle
//! ever disagree, the oracle is the spec.

use pacds_core::{Application, CdsConfig, CdsViolation, Policy, PruneSchedule, Rule2Semantics};
use pacds_geom::Point2;
use pacds_graph::{Graph, NodeId, VertexMask};
use pacds_routing::RouteError;
use std::collections::VecDeque;

/// The lexicographic priority of `v` under `policy`, recomputed from the
/// graph on every call (Rules 1/2 = id; 1a/2a = (degree, id); 1b/2b =
/// (energy, id); 1b'/2b' = (energy, degree, id)). Lower sorts first and is
/// pruned first.
pub fn priority_of(policy: Policy, g: &Graph, energy: Option<&[u64]>, v: NodeId) -> Vec<u64> {
    let id = v as u64;
    let deg = g.degree(v) as u64;
    let el = || energy.expect("energy-aware policy requires energy levels")[v as usize];
    match policy {
        Policy::NoPruning | Policy::Id => vec![id],
        Policy::Degree => vec![deg, id],
        Policy::Energy => vec![el(), id],
        Policy::EnergyDegree => vec![el(), deg, id],
    }
}

/// Whether `a` has strictly lower priority than `b` under `policy`.
pub fn priority_lt(
    policy: Policy,
    g: &Graph,
    energy: Option<&[u64]>,
    a: NodeId,
    b: NodeId,
) -> bool {
    priority_of(policy, g, energy, a) < priority_of(policy, g, energy, b)
}

/// The marking process, literally: `v` is marked iff it has two neighbours
/// that are not connected to each other. Scans every neighbour pair with
/// no early exit — O(n·Δ²).
pub fn marking_oracle(g: &Graph) -> VertexMask {
    let mut out = vec![false; g.n()];
    for v in g.vertices() {
        let nv = g.neighbors(v);
        let mut unconnected_pair = false;
        for (i, &u) in nv.iter().enumerate() {
            for &w in &nv[i + 1..] {
                if !g.has_edge(u, w) {
                    unconnected_pair = true;
                }
            }
        }
        out[v as usize] = unconnected_pair;
    }
    out
}

/// `N[v] ⊆ N[u]` by sorted-slice scan (Rule 1's coverage condition).
fn closed_covered(g: &Graph, v: NodeId, u: NodeId) -> bool {
    let in_closed_u = |x: NodeId| x == u || g.neighbors(u).binary_search(&x).is_ok();
    in_closed_u(v) && g.neighbors(v).iter().all(|&x| in_closed_u(x))
}

/// `N(v) ⊆ N(u) ∪ N(w)` by sorted-slice scan (Rule 2's coverage
/// condition, open neighbourhoods, no special cases).
fn open_covered_pair(g: &Graph, v: NodeId, u: NodeId, w: NodeId) -> bool {
    g.neighbors(v).iter().all(|&x| {
        g.neighbors(u).binary_search(&x).is_ok() || g.neighbors(w).binary_search(&x).is_ok()
    })
}

/// Whether Rule 1 unmarks `v` against the `marked` snapshot: some marked
/// `u ≠ v` with `N[v] ⊆ N[u]` and lower priority for `v`. Scans *all*
/// vertices, not just neighbours (coverage forces `u ∈ N(v)` anyway).
fn rule1_unmarks(
    g: &Graph,
    marked: &[bool],
    policy: Policy,
    energy: Option<&[u64]>,
    v: NodeId,
) -> bool {
    g.vertices().any(|u| {
        u != v
            && marked[u as usize]
            && closed_covered(g, v, u)
            && priority_lt(policy, g, energy, v, u)
    })
}

/// Whether Rule 2 unmarks `v` against the `marked` snapshot under
/// `semantics`: some pair of distinct marked neighbours `u, w` with
/// `N(v) ⊆ N(u) ∪ N(w)` whose priority case approves.
fn rule2_unmarks(
    g: &Graph,
    marked: &[bool],
    policy: Policy,
    energy: Option<&[u64]>,
    semantics: Rule2Semantics,
    v: NodeId,
) -> bool {
    let lt = |a: NodeId, b: NodeId| priority_lt(policy, g, energy, a, b);
    let nv = g.neighbors(v);
    for (i, &u) in nv.iter().enumerate() {
        if !marked[u as usize] {
            continue;
        }
        for &w in &nv[i + 1..] {
            if !marked[w as usize] || !open_covered_pair(g, v, u, w) {
                continue;
            }
            let approves = match semantics {
                Rule2Semantics::MinOfThree => lt(v, u) && lt(v, w),
                Rule2Semantics::CaseAnalysis => {
                    let cu = open_covered_pair(g, u, v, w);
                    let cw = open_covered_pair(g, w, v, u);
                    match (cu, cw) {
                        (false, false) => true,
                        (true, false) => lt(v, u),
                        (false, true) => lt(v, w),
                        (true, true) => lt(v, u) && lt(v, w),
                    }
                }
            };
            if approves {
                return true;
            }
        }
    }
    false
}

/// One Rule 1 pass under `application` (snapshot or in-place sweep).
pub fn rule1_oracle(
    g: &Graph,
    marked: &[bool],
    policy: Policy,
    energy: Option<&[u64]>,
    application: Application,
) -> VertexMask {
    let mut cur = marked.to_vec();
    for v in g.vertices() {
        let unmark = match application {
            Application::Simultaneous => {
                marked[v as usize] && rule1_unmarks(g, marked, policy, energy, v)
            }
            Application::Sequential => cur[v as usize] && rule1_unmarks(g, &cur, policy, energy, v),
        };
        if unmark {
            cur[v as usize] = false;
        }
    }
    cur
}

/// One Rule 2 pass under `application`.
pub fn rule2_oracle(
    g: &Graph,
    marked: &[bool],
    policy: Policy,
    energy: Option<&[u64]>,
    semantics: Rule2Semantics,
    application: Application,
) -> VertexMask {
    let mut cur = marked.to_vec();
    for v in g.vertices() {
        let unmark = match application {
            Application::Simultaneous => {
                marked[v as usize] && rule2_unmarks(g, marked, policy, energy, semantics, v)
            }
            Application::Sequential => {
                cur[v as usize] && rule2_unmarks(g, &cur, policy, energy, semantics, v)
            }
        };
        if unmark {
            cur[v as usize] = false;
        }
    }
    cur
}

/// The full reference pipeline for any [`CdsConfig`]: marking, then the
/// rule pair under the configured application and schedule, with the same
/// `Id`-forces-min-of-three override as the production
/// [`CdsConfig::rule2_semantics`].
pub fn compute_cds_oracle(g: &Graph, energy: Option<&[u64]>, cfg: &CdsConfig) -> VertexMask {
    let marked = marking_oracle(g);
    if !cfg.policy.prunes() {
        return marked;
    }
    if cfg.policy.needs_energy() {
        let e = energy.expect("energy-aware policy requires energy levels");
        assert_eq!(e.len(), g.n(), "energy table length must equal n");
    }
    let semantics = cfg.rule2_semantics();
    let round = |m: &[bool]| {
        let after1 = rule1_oracle(g, m, cfg.policy, energy, cfg.application);
        rule2_oracle(g, &after1, cfg.policy, energy, semantics, cfg.application)
    };
    let mut cur = round(&marked);
    if cfg.schedule == PruneSchedule::Fixpoint {
        loop {
            let next = round(&cur);
            if next == cur {
                break;
            }
            cur = next;
        }
    }
    cur
}

/// Independent CDS verifier: domination by direct scan, connectivity of
/// the induced subgraph by union-find (no shared code with
/// [`pacds_core::verify_cds`], but the identical contract, including the
/// empty-set-on-complete-graph special case). Returns the same
/// [`CdsViolation`] type so verdicts can be compared directly.
pub fn verify_oracle(g: &Graph, mask: &[bool]) -> Result<(), CdsViolation> {
    assert_eq!(mask.len(), g.n());
    if mask.iter().all(|&b| !b) {
        let n = g.n();
        return if n <= 1 || g.m() == n * (n - 1) / 2 {
            Ok(())
        } else {
            Err(CdsViolation::Empty)
        };
    }
    for v in g.vertices() {
        if !mask[v as usize] && !g.neighbors(v).iter().any(|&u| mask[u as usize]) {
            return Err(CdsViolation::NotDominating { witness: v });
        }
    }
    // Union-find over edges internal to the set.
    let mut parent: Vec<usize> = (0..g.n()).collect();
    fn find(parent: &mut [usize], mut v: usize) -> usize {
        while parent[v] != v {
            parent[v] = parent[parent[v]];
            v = parent[v];
        }
        v
    }
    for (u, v) in g.edges() {
        if mask[u as usize] && mask[v as usize] {
            let (a, b) = (find(&mut parent, u as usize), find(&mut parent, v as usize));
            parent[a] = b;
        }
    }
    let mut root = None;
    for (v, &in_set) in mask.iter().enumerate().take(g.n()) {
        if in_set {
            let r = find(&mut parent, v);
            if *root.get_or_insert(r) != r {
                return Err(CdsViolation::NotConnected);
            }
        }
    }
    Ok(())
}

/// O(n²) pairwise unit-disk construction with its own distance arithmetic
/// (`dx² + dy² ≤ r² + EPS`, rim-inclusive like the production builders).
pub fn unit_disk_oracle(radius: f64, points: &[Point2]) -> Graph {
    let mut edges = Vec::new();
    let r2 = radius * radius + pacds_geom::EPS;
    for i in 0..points.len() {
        for j in i + 1..points.len() {
            let dx = points[i].x - points[j].x;
            let dy = points[i].y - points[j].y;
            if dx * dx + dy * dy <= r2 {
                edges.push((i as NodeId, j as NodeId));
            }
        }
    }
    Graph::from_edges(points.len(), &edges)
}

/// Exhaustive minimum connected dominating set: enumerates all 2ⁿ vertex
/// subsets and returns the size and one witness of the smallest set
/// accepted by [`verify_oracle`]. `None` when no subset verifies (a
/// disconnected graph). On complete graphs this returns size 0 (the empty
/// set verifies there by contract).
///
/// # Panics
/// Panics for `n > 20` — the enumeration is the point, not the scale.
pub fn min_cds_exhaustive(g: &Graph) -> Option<(usize, VertexMask)> {
    let n = g.n();
    assert!(n <= 20, "exhaustive search is for n <= 20 (got {n})");
    let mut best: Option<(usize, VertexMask)> = None;
    for bits in 0u32..(1u32 << n) {
        let size = bits.count_ones() as usize;
        if best.as_ref().is_some_and(|(b, _)| size >= *b) {
            continue;
        }
        let mask: VertexMask = (0..n).map(|v| bits >> v & 1 == 1).collect();
        if verify_oracle(g, &mask).is_ok() {
            best = Some((size, mask));
        }
    }
    best
}

/// One gateway's routing-table row (Figure 2(c)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GatewayEntry {
    /// The gateway host this entry describes.
    pub gateway: NodeId,
    /// Its domain membership list: adjacent non-gateway hosts.
    pub members: Vec<NodeId>,
    /// Hop distance from the owning gateway, within the live gateway
    /// subgraph.
    pub distance: u32,
    /// Next gateway on a shortest live-gateway path (self for distance 0).
    pub next_hop: NodeId,
}

/// The paper's Figure-2 tables, materialised densely: every gateway's
/// domain membership list, and at every live gateway one row per
/// reachable gateway with its distance and next hop within the live
/// gateway subgraph (`gateway && alive`). One BFS per live gateway,
/// `O(gateways × n)` words: the reference `pacds_routing::BackboneRoutes`
/// is checked against, path for path and error for error.
///
/// The next hop toward a gateway is the smallest-id live gateway neighbour
/// one hop closer to it, so the walk is fixed by the graph and the live
/// backbone alone.
#[derive(Debug, Clone)]
pub struct DenseTables {
    gateway: Vec<bool>,
    alive: Vec<bool>,
    /// Domain membership list per gateway (empty for non-gateways).
    members: Vec<Vec<NodeId>>,
    /// `dist[h][u]`: hops from `u` to live gateway `h` within the live
    /// gateway subgraph (`u32::MAX` when unreachable; empty row when `h`
    /// is not a live gateway).
    dist: Vec<Vec<u32>>,
    /// `next[at][h]`: next gateway from live gateway `at` toward `h`;
    /// `NodeId::MAX` when unreachable.
    next: Vec<Vec<NodeId>>,
}

impl DenseTables {
    /// Builds the tables of `g` under the gateway and liveness masks.
    pub fn build(g: &Graph, gateway: &[bool], alive: &[bool]) -> Self {
        let n = g.n();
        assert_eq!(gateway.len(), n);
        assert_eq!(alive.len(), n);
        let live = |v: NodeId| gateway[v as usize] && alive[v as usize];
        let members = (0..n as NodeId)
            .map(|v| match gateway[v as usize] {
                true => g
                    .neighbors(v)
                    .iter()
                    .copied()
                    .filter(|&u| !gateway[u as usize])
                    .collect(),
                false => Vec::new(),
            })
            .collect();
        let dist: Vec<Vec<u32>> = (0..n as NodeId)
            .map(|h| match live(h) {
                true => {
                    let mut d = vec![u32::MAX; n];
                    d[h as usize] = 0;
                    let mut queue = VecDeque::from([h]);
                    while let Some(v) = queue.pop_front() {
                        for &u in g.neighbors(v) {
                            if live(u) && d[u as usize] == u32::MAX {
                                d[u as usize] = d[v as usize] + 1;
                                queue.push_back(u);
                            }
                        }
                    }
                    d
                }
                false => Vec::new(),
            })
            .collect();
        let next = (0..n as NodeId)
            .map(|at| match live(at) {
                true => (0..n as NodeId)
                    .map(|h| {
                        let Some(&d) = dist[h as usize].get(at as usize) else {
                            return NodeId::MAX;
                        };
                        match d {
                            u32::MAX => NodeId::MAX,
                            0 => at,
                            d => *g
                                .neighbors(at)
                                .iter()
                                .filter(|&&w| dist[h as usize][w as usize] == d - 1)
                                .min()
                                .expect("a BFS distance has a predecessor"),
                        }
                    })
                    .collect(),
                false => Vec::new(),
            })
            .collect();
        Self {
            gateway: gateway.to_vec(),
            alive: alive.to_vec(),
            members,
            dist,
            next,
        }
    }

    /// Domain membership list of gateway `v` (Figure 2(b)); empty for
    /// non-gateways.
    pub fn members(&self, v: NodeId) -> &[NodeId] {
        &self.members[v as usize]
    }

    /// The gateway routing table stored at live gateway `at` (Figure
    /// 2(c)): one row per gateway reachable from it.
    ///
    /// # Panics
    /// Panics if `at` is not a live gateway.
    pub fn routing_table(&self, at: NodeId) -> Vec<GatewayEntry> {
        assert!(
            !self.next[at as usize].is_empty(),
            "host {at} is not a live gateway"
        );
        (0..self.gateway.len() as NodeId)
            .filter_map(|h| {
                let distance = self.gateway_distance(at, h)?;
                Some(GatewayEntry {
                    gateway: h,
                    members: self.members[h as usize].clone(),
                    distance,
                    next_hop: self.next[at as usize][h as usize],
                })
            })
            .collect()
    }

    /// Hops between live gateways `a` and `b` within the live gateway
    /// subgraph; `None` when either is not a live gateway or no path
    /// exists.
    pub fn gateway_distance(&self, a: NodeId, b: NodeId) -> Option<u32> {
        let d = *self.dist.get(b as usize)?.get(a as usize)?;
        (d != u32::MAX).then_some(d)
    }

    /// Hops from every host to live gateway `h` within the live gateway
    /// subgraph (`u32::MAX`: off it or cut off from `h`); `None` when `h`
    /// is not a live gateway.
    pub fn distances_to(&self, h: NodeId) -> Option<&[u32]> {
        let row = self.dist.get(h as usize)?;
        (!row.is_empty()).then_some(row.as_slice())
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
            .filter(|&u| self.gateway[u as usize])
            .min()
    }

    /// The paper's three-step route from `src` to `dst`, endpoints
    /// included: a direct edge is one hop; otherwise the source's gateway,
    /// the table walk to the destination's gateway, and the destination.
    /// A dead endpoint or a dead chosen gateway is
    /// [`RouteError::StaleGateway`].
    pub fn route(&self, g: &Graph, src: NodeId, dst: NodeId) -> Result<Vec<NodeId>, RouteError> {
        let n = self.gateway.len();
        if src as usize >= n || dst as usize >= n {
            return Err(RouteError::OutOfRange);
        }
        if !self.alive[src as usize] || !self.alive[dst as usize] {
            return Err(RouteError::StaleGateway);
        }
        if src == dst {
            return Ok(vec![src]);
        }
        if g.neighbors(src).contains(&dst) {
            return Ok(vec![src, dst]);
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
        if self.gateway_distance(sg, dg).is_none() {
            return Err(RouteError::GatewayPathMissing);
        }
        let mut path = vec![src];
        let mut cur = sg;
        path.push(cur);
        while cur != dg {
            cur = self.next[cur as usize][dg as usize];
            path.push(cur);
        }
        path.push(dst);
        path.dedup();
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pacds_graph::{gen, mask_to_vec};
    use rand::SeedableRng;

    #[test]
    fn marking_oracle_on_figure_1() {
        // u=0, v=1, w=2, x=3, y=4 from the paper's Figure 1.
        let g = Graph::from_edges(5, &[(0, 1), (0, 4), (1, 2), (1, 4), (2, 3)]);
        assert_eq!(mask_to_vec(&marking_oracle(&g)), vec![1, 2]);
    }

    #[test]
    fn priorities_are_strict_total_orders() {
        let g = gen::cycle(6);
        let energy = [3u64, 3, 1, 4, 1, 5];
        for policy in Policy::ALL {
            for a in 0..6u32 {
                for b in 0..6u32 {
                    let ab = priority_lt(policy, &g, Some(&energy), a, b);
                    let ba = priority_lt(policy, &g, Some(&energy), b, a);
                    if a == b {
                        assert!(!ab && !ba);
                    } else {
                        assert!(ab ^ ba, "{policy:?} {a} {b}");
                    }
                }
            }
        }
    }

    #[test]
    fn verify_oracle_contract_matches_production() {
        let path = gen::path(5);
        assert_eq!(
            verify_oracle(&path, &[false, true, false, true, false]),
            Err(CdsViolation::NotConnected)
        );
        assert_eq!(
            verify_oracle(&path, &[true, false, false, false, true]),
            Err(CdsViolation::NotDominating { witness: 2 })
        );
        assert_eq!(
            verify_oracle(&path, &[false, true, true, true, false]),
            Ok(())
        );
        assert_eq!(verify_oracle(&path, &[false; 5]), Err(CdsViolation::Empty));
        assert_eq!(verify_oracle(&gen::complete(4), &[false; 4]), Ok(()));
    }

    #[test]
    fn min_cds_on_known_families() {
        assert_eq!(min_cds_exhaustive(&gen::path(7)).unwrap().0, 5);
        assert_eq!(min_cds_exhaustive(&gen::star(6)).unwrap().0, 1);
        assert_eq!(min_cds_exhaustive(&gen::cycle(6)).unwrap().0, 4);
        // Complete graphs verify the empty set by contract.
        assert_eq!(min_cds_exhaustive(&gen::complete(5)).unwrap().0, 0);
        // Disconnected: nothing verifies.
        assert_eq!(min_cds_exhaustive(&Graph::new(3)), None);
    }

    /// Figure 1's network: u=0, v=1, w=2, x=3, y=4; gateways {1, 2}.
    fn fig1(alive: &[bool]) -> (Graph, DenseTables) {
        let g = Graph::from_edges(5, &[(0, 1), (0, 4), (1, 2), (1, 4), (2, 3)]);
        let gw = compute_cds_oracle(&g, None, &CdsConfig::policy(Policy::Id));
        let tables = DenseTables::build(&g, &gw, alive);
        (g, tables)
    }

    #[test]
    fn membership_lists_partition_non_gateways() {
        let (_, tables) = fig1(&[true; 5]);
        assert_eq!(tables.members(1), &[0, 4]); // v's domain: u, y
        assert_eq!(tables.members(2), &[3]); // w's domain: x
        assert!(tables.members(0).is_empty());
    }

    #[test]
    fn routing_table_rows() {
        let (_, tables) = fig1(&[true; 5]);
        let table = tables.routing_table(1);
        assert_eq!(table.len(), 2); // entries for gateways 1 and 2
        let row2 = table.iter().find(|e| e.gateway == 2).unwrap();
        assert_eq!(row2.distance, 1);
        assert_eq!(row2.next_hop, 2);
        assert_eq!(row2.members, vec![3]);
        for e in &table {
            assert_eq!(tables.gateway_distance(1, e.gateway), Some(e.distance));
        }
    }

    #[test]
    #[should_panic]
    fn routing_table_at_non_gateway_panics() {
        let (_, tables) = fig1(&[true; 5]);
        tables.routing_table(0);
    }

    #[test]
    fn three_step_route_crosses_the_backbone() {
        let (g, tables) = fig1(&[true; 5]);
        // y=4 to x=3: 4 -> 1 (source gateway) -> 2 (dest gateway) -> 3.
        assert_eq!(tables.route(&g, 4, 3).unwrap(), vec![4, 1, 2, 3]);
    }

    #[test]
    fn direct_neighbors_bypass_the_overlay() {
        let (g, tables) = fig1(&[true; 5]);
        assert_eq!(tables.route(&g, 0, 4).unwrap(), vec![0, 4]);
        assert_eq!(tables.route(&g, 3, 3).unwrap(), vec![3]);
    }

    #[test]
    fn gateway_endpoints_skip_steps_one_or_three() {
        let (g, tables) = fig1(&[true; 5]);
        assert_eq!(tables.route(&g, 1, 3).unwrap(), vec![1, 2, 3]);
        assert_eq!(tables.route(&g, 4, 2).unwrap(), vec![4, 1, 2]);
        assert_eq!(tables.route(&g, 1, 2).unwrap(), vec![1, 2]);
    }

    #[test]
    fn undominated_endpoints_error() {
        // 0-1-2 path plus isolated 3: empty-adjacent host.
        let g = Graph::from_edges(4, &[(0, 1), (1, 2)]);
        let tables = DenseTables::build(&g, &[false, true, false, false], &[true; 4]);
        assert_eq!(tables.route(&g, 3, 0), Err(RouteError::SourceNotDominated));
        assert_eq!(
            tables.route(&g, 0, 3),
            Err(RouteError::DestinationNotDominated)
        );
        assert_eq!(tables.route(&g, 0, 9), Err(RouteError::OutOfRange));
    }

    #[test]
    fn disconnected_gateway_set_reports_missing_path() {
        // Path 0-1-2-3-4-5 with gateways {1, 4}: dominating, but
        // disconnected as a gateway set.
        let g = gen::path(6);
        let gw = [false, true, false, false, true, false];
        let tables = DenseTables::build(&g, &gw, &[true; 6]);
        assert_eq!(tables.route(&g, 0, 5), Err(RouteError::GatewayPathMissing));
    }

    #[test]
    fn dead_destination_gateway_is_stale() {
        // Route 4 -> 3 is delivered by gateway 2; with 2 dead it is stale.
        let (g, tables) = fig1(&[true, true, false, true, true]);
        assert_eq!(tables.route(&g, 4, 3), Err(RouteError::StaleGateway));
    }

    #[test]
    fn dead_source_gateway_is_stale() {
        // 4's source gateway is 1; with 1 dead the tables are stale.
        let (g, tables) = fig1(&[true, false, true, true, true]);
        assert_eq!(tables.route(&g, 4, 3), Err(RouteError::StaleGateway));
    }

    #[test]
    fn dead_endpoints_are_stale() {
        let (g, tables) = fig1(&[true, true, true, false, true]);
        assert_eq!(tables.route(&g, 4, 3), Err(RouteError::StaleGateway));
    }

    #[test]
    fn direct_neighbors_bypass_dead_gateways() {
        // Both gateways dead, but 0-4 is a direct edge: still deliverable.
        let (g, tables) = fig1(&[true, false, false, true, true]);
        assert_eq!(tables.route(&g, 0, 4).unwrap(), vec![0, 4]);
    }

    #[test]
    fn next_hops_take_the_smallest_id_way_round() {
        // Cycle C6, all gateways: 0 -> 3 is 3 hops either way.
        let g = gen::cycle(6);
        let tables = DenseTables::build(&g, &[true; 6], &[true; 6]);
        assert_eq!(tables.route(&g, 0, 3).unwrap(), vec![0, 1, 2, 3]);
        assert_eq!(tables.route(&g, 3, 0).unwrap(), vec![3, 2, 1, 0]);
        // A dead gateway leaves the live backbone: the walk goes round.
        let mut alive = [true; 6];
        alive[1] = false;
        let tables = DenseTables::build(&g, &[true; 6], &alive);
        assert_eq!(tables.route(&g, 0, 3).unwrap(), vec![0, 5, 4, 3]);
        assert_eq!(tables.distances_to(3).unwrap(), [3, u32::MAX, 1, 0, 1, 2]);
        assert_eq!(tables.distances_to(1), None);
    }

    #[test]
    fn routes_are_valid_walks_on_random_unit_disks() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let bounds = pacds_geom::Rect::paper_arena();
        for _ in 0..10 {
            let pts = pacds_geom::placement::uniform_points(&mut rng, bounds, 40);
            let full = gen::unit_disk(bounds, 25.0, &pts);
            let keep = pacds_graph::algo::largest_component(&full);
            let (g, _) = full.induced(&keep);
            if g.n() < 3 || g.is_complete() {
                continue;
            }
            let gw = compute_cds_oracle(&g, None, &CdsConfig::policy(Policy::Degree));
            let tables = DenseTables::build(&g, &gw, &vec![true; g.n()]);
            for a in (0..g.n() as NodeId).filter(|&a| gw[a as usize]) {
                for b in (0..g.n() as NodeId).filter(|&b| gw[b as usize]) {
                    let expected =
                        pacds_graph::algo::restricted_shortest_path(&g, a, b, |v| gw[v as usize])
                            .ok()
                            .map(|p| (p.len() - 1) as u32);
                    assert_eq!(tables.gateway_distance(a, b), expected, "{a}->{b}");
                }
            }
            for s in 0..g.n() as NodeId {
                for t in 0..g.n() as NodeId {
                    let path = tables.route(&g, s, t).unwrap();
                    assert!(
                        path.windows(2).all(|w| g.has_edge(w[0], w[1])),
                        "{s}->{t}: {path:?}"
                    );
                    assert_eq!(path.first(), Some(&s));
                    assert_eq!(path.last(), Some(&t));
                }
            }
        }
    }

    #[test]
    fn unit_disk_oracle_rim_is_inclusive() {
        let pts = [
            Point2::new(0.0, 0.0),
            Point2::new(25.0, 0.0),
            Point2::new(51.0, 0.0),
        ];
        let g = unit_disk_oracle(25.0, &pts);
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(1, 2));
    }
}
