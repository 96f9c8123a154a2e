//! Dataplane conformance against the routing oracles, over the
//! adversarial topology corpus.
//!
//! Two pins, per corpus case:
//!
//! * **Unicast**: pumping one packet per sampled (src, dst) pair through
//!   the full node graph delivers every packet with an aggregate hop
//!   count exactly equal to the sum of the dense Figure-2 oracle's
//!   ([`DenseTables`]) hop counts, with zero misroutes.
//! * **Broadcast**: the flood node's blind and gateway floods reproduce
//!   [`pacds_routing::flood_cost`] exactly, and gateway flooding never
//!   transmits more than blind flooding.
//!
//! And one differential pin for the route tables under churn: the
//! geometric corpus cases and the testkit churn traces are replayed as
//! kills through [`ChurnNet`]. After every refresh and install, each
//! cached destination tree — repaired in place or rebuilt — holds the
//! distances the oracle's BFS over the live backbone gives, and every
//! sampled route is the oracle's path (or its error). Named cases pin the
//! destination leaving the backbone, a joining gateway that shortens
//! distances outside the cut subtree, a kill that splits the backbone,
//! and back-to-back installs.

use pacds_core::{compute_cds, CdsConfig, CdsInput, Policy};
use pacds_dataplane::{ChurnNet, Dataplane};
use pacds_geom::{Point2, Rect};
use pacds_graph::{Graph, NodeId};
use pacds_routing::{flood_cost, hop_count, BackboneRoutes, RouteError};
use pacds_shard::ShardSpec;
use pacds_testkit::oracle::DenseTables;
use pacds_testkit::{churn, corpus};

/// Sampled ordered pairs: everything for small graphs, a deterministic
/// stride otherwise.
fn pairs(n: usize) -> Vec<(NodeId, NodeId)> {
    let mut out = Vec::new();
    if n <= 12 {
        for s in 0..n as NodeId {
            for t in 0..n as NodeId {
                out.push((s, t));
            }
        }
    } else {
        for i in 0..64usize {
            let s = ((i * 31 + 7) % n) as NodeId;
            let t = ((i * 17 + 3) % n) as NodeId;
            out.push((s, t));
        }
    }
    out
}

#[test]
fn unicast_hop_counts_match_the_route_oracle_on_the_corpus() {
    let mut cases = corpus::named_families();
    cases.extend(corpus::random_unit_disk_cases(0xDA7A, 20));
    let mut checked = 0usize;
    for case in &cases {
        if !case.connected || case.graph.n() < 2 {
            continue;
        }
        let g = &case.graph;
        let cds = compute_cds(&CdsInput::new(g), &CdsConfig::policy(Policy::Degree));
        let alive = vec![true; g.n()];
        let oracle = DenseTables::build(g, &cds, &alive);
        let mut dp = Dataplane::new();
        dp.install_tables(&cds, &alive);

        let mut expected_hops = 0u64;
        let mut injected = 0u64;
        for (s, t) in pairs(g.n()) {
            let reference = match oracle.route(g, s, t) {
                Ok(p) => p,
                // The corpus has no undominated vertices in connected
                // graphs; any error here is a real regression.
                Err(e) => panic!("{}: oracle route {s}->{t} failed: {e}", case.name),
            };
            expected_hops += hop_count(&reference) as u64;
            let f = dp.add_flow(s, t);
            dp.inject(f, 1);
            injected += 1;
        }
        let stats = dp.pump(g, &alive);
        assert_eq!(stats.delivered, injected, "{}", case.name);
        assert_eq!(stats.dropped, 0, "{}", case.name);
        assert_eq!(stats.nacked, 0, "{}", case.name);
        assert_eq!(stats.misroutes, 0, "{}", case.name);
        assert_eq!(
            stats.forwarded_hops, expected_hops,
            "{}: aggregate hops diverge from the dense-table oracle",
            case.name
        );
        checked += 1;
    }
    assert!(checked >= 30, "corpus shrank? only {checked} cases checked");
}

#[test]
fn broadcasts_match_flood_cost_on_the_corpus() {
    let mut cases = corpus::named_families();
    cases.extend(corpus::random_unit_disk_cases(0xF100D, 12));
    let mut checked = 0usize;
    for case in &cases {
        let g = &case.graph;
        if g.n() == 0 {
            continue;
        }
        let cds = compute_cds(&CdsInput::new(g), &CdsConfig::policy(Policy::Degree));
        let alive = vec![true; g.n()];
        let mut dp = Dataplane::new();
        dp.install_tables(&cds, &alive);
        for src in [0, (g.n() / 2) as NodeId, g.n() as NodeId - 1] {
            dp.inject_broadcast(src, true);
            dp.pump(g, &alive);
            let blind = dp.last_flood().unwrap();
            assert_eq!(blind, flood_cost(g, src, None), "{} blind {src}", case.name);

            dp.inject_broadcast(src, false);
            dp.pump(g, &alive);
            let gateway = dp.last_flood().unwrap();
            assert_eq!(
                gateway,
                flood_cost(g, src, Some(&cds)),
                "{} gateway {src}",
                case.name
            );
            assert!(
                gateway.transmissions <= blind.transmissions,
                "{}: gateway flood transmitted more than blind",
                case.name
            );
            if case.connected {
                assert_eq!(
                    gateway.reached, blind.reached,
                    "{}: gateway flood lost coverage",
                    case.name
                );
            }
        }
        checked += 1;
    }
    assert!(checked >= 30, "corpus shrank? only {checked} cases checked");
}

/// Checks the installed tables against the dense oracle: every sampled
/// pair routes to the oracle's path or fails with its error, then every
/// cached tree (repaired or rebuilt on the way) holds the oracle's BFS
/// distances. Returns the (built, repaired) tree counts of this install.
fn check_tables(
    routes: &mut BackboneRoutes,
    g: &Graph,
    gateway: &[bool],
    alive: &[bool],
    label: &str,
) -> (usize, usize) {
    let oracle = DenseTables::build(g, gateway, alive);
    let mut out = Vec::new();
    for (s, t) in pairs(g.n()) {
        let got = routes.assemble(g, s, t, &mut out).map(|()| out.clone());
        assert_eq!(got, oracle.route(g, s, t), "{label}: route {s}->{t}");
    }
    let counts = (routes.trees_built(), routes.trees_repaired());
    let dests: Vec<NodeId> = routes.cached_destinations().collect();
    for dg in dests {
        assert_eq!(
            routes.distances(g, dg),
            oracle.distances_to(dg),
            "{label}: tree {dg}"
        );
    }
    counts
}

/// Kills `victims` one refresh at a time, checking the tables after each
/// install. Returns the trees (built, repaired) across the replay.
fn replay_kills(net: &mut ChurnNet, victims: &[NodeId], label: &str) -> (usize, usize) {
    let mut dp = Dataplane::new();
    dp.install_tables(net.gateway(), net.alive());
    check_tables(
        dp.routes_mut(),
        net.graph(),
        net.gateway(),
        net.alive(),
        label,
    );
    let (mut built, mut repaired) = (0, 0);
    for (k, &v) in victims.iter().enumerate() {
        if !net.alive()[v as usize] || net.kill(v).is_err() {
            continue;
        }
        net.refresh();
        dp.install_tables(net.gateway(), net.alive());
        let label = format!("{label} kill #{k} ({v})");
        let (b, r) = check_tables(
            dp.routes_mut(),
            net.graph(),
            net.gateway(),
            net.alive(),
            &label,
        );
        built += b;
        repaired += r;
    }
    (built, repaired)
}

/// Interior hops of the current routes first — the hosts whose death
/// strands traffic — then a stride over all hosts.
fn victims(net: &ChurnNet, count: usize) -> Vec<NodeId> {
    let n = net.n();
    let mut routes = BackboneRoutes::new();
    routes.install(net.gateway(), net.alive());
    let mut out = Vec::new();
    let mut picked = Vec::new();
    for (s, t) in pairs(n) {
        if routes.assemble(net.graph(), s, t, &mut out).is_ok() && out.len() > 2 {
            let v = out[out.len() / 2];
            if !picked.contains(&v) {
                picked.push(v);
            }
        }
    }
    picked.truncate(count / 2);
    picked.extend((0..count).map(|k| ((k * 37 + 11) % n) as NodeId));
    picked
}

#[test]
fn repaired_trees_match_the_oracle_on_corpus_kills() {
    let mut cases = corpus::named_families();
    cases.extend(corpus::random_unit_disk_cases(0xDA7A, 12));
    let (mut checked, mut built, mut repaired) = (0, 0, 0);
    for case in &cases {
        let Some((bounds, radius, points)) = &case.positions else {
            continue;
        };
        let cfg = CdsConfig::policy(Policy::Degree);
        let Ok(mut net) = ChurnNet::open(
            ShardSpec::new(0),
            *bounds,
            *radius,
            points,
            &case.energy,
            &cfg,
        ) else {
            continue;
        };
        let victims = victims(&net, 10);
        let (b, r) = replay_kills(&mut net, &victims, &case.name);
        built += b;
        repaired += r;
        checked += 1;
    }
    assert!(
        checked >= 10,
        "geometric corpus shrank? only {checked} cases checked"
    );
    assert!(
        repaired > built,
        "repairs ran: {repaired} repaired vs {built} built"
    );
}

#[test]
fn repaired_trees_match_the_oracle_on_churn_trace_kills() {
    let mut traces = churn::corpus_traces(0x5EED);
    traces.extend(churn::derived_grid_traces(0x5EED));
    let (mut kills, mut built, mut repaired) = (0, 0, 0);
    for trace in &traces {
        let cfg = CdsConfig::policy(Policy::Degree);
        let mut net = ChurnNet::open(
            ShardSpec::new(trace.shards),
            trace.bounds,
            trace.radius,
            &trace.points,
            &trace.energy,
            &cfg,
        )
        .expect("trace instances are shardable");
        // ChurnNet only kills: replay the trace's kills of initial hosts,
        // then a stride of route interior hops.
        let mut victims: Vec<NodeId> = trace
            .events
            .iter()
            .filter_map(|e| match *e {
                churn::TraceEvent::Kill { node } if (node as usize) < trace.points.len() => {
                    Some(node)
                }
                _ => None,
            })
            .collect();
        victims.extend(self::victims(&net, 8));
        kills += victims.len();
        let (b, r) = replay_kills(&mut net, &victims, &trace.name);
        built += b;
        repaired += r;
    }
    assert!(kills >= 50, "only {kills} kills replayed");
    assert!(
        repaired > built,
        "repairs ran: {repaired} repaired vs {built} built"
    );
}

/// Ladder 2×6: top row 0..=5, bottom row 6..=11, rungs i–(i+6).
fn ladder() -> Graph {
    let mut edges = Vec::new();
    for i in 0..5 {
        edges.push((i, i + 1));
        edges.push((i + 6, i + 7));
    }
    for i in 0..6 {
        edges.push((i, i + 6));
    }
    Graph::from_edges(12, &edges)
}

fn isolate(g: &Graph, dead: &[NodeId]) -> Graph {
    let mut edges = Vec::new();
    for v in 0..g.n() as NodeId {
        for &u in g.neighbors(v) {
            if u > v && !dead.contains(&u) && !dead.contains(&v) {
                edges.push((v, u));
            }
        }
    }
    Graph::from_edges(g.n(), &edges)
}

#[test]
fn destination_gateway_demoted_or_killed() {
    for kill in [false, true] {
        let g = ladder();
        // The top row carries the backbone; 11's gateway is 5.
        let mut gw = vec![false; 12];
        gw[..6].fill(true);
        let mut alive = vec![true; 12];
        let mut routes = BackboneRoutes::new();
        routes.install(&gw, &alive);
        check_tables(&mut routes, &g, &gw, &alive, "before");
        let mut out = Vec::new();
        routes.assemble(&g, 6, 11, &mut out).unwrap();
        assert_eq!(out, [6, 0, 1, 2, 3, 4, 5, 11]);

        // 5 leaves the backbone; 10 joins it and takes over 11.
        gw[5] = false;
        gw[10] = true;
        let g = if kill {
            alive[5] = false;
            isolate(&ladder(), &[5])
        } else {
            g
        };
        routes.install(&gw, &alive);
        let label = if kill { "killed" } else { "demoted" };
        check_tables(&mut routes, &g, &gw, &alive, label);
        routes.assemble(&g, 6, 11, &mut out).unwrap();
        assert_eq!(hop_count(&out), 7, "{label}: {out:?}");
        assert_eq!(out[out.len() - 2], 10, "{label}: 11 is reached through 10");
        assert!(
            routes.distances(&g, 5).is_none(),
            "{label}: 5 is off the backbone"
        );
    }
}

#[test]
fn joining_gateway_shortens_distances_outside_the_cut_subtree() {
    // Path 0..=9 plus host 10 adjacent to 0 and 7.
    let mut edges: Vec<(NodeId, NodeId)> = (0..9).map(|i| (i, i + 1)).collect();
    edges.extend([(0, 10), (7, 10)]);
    let g = Graph::from_edges(11, &edges);
    let mut gw = vec![true; 11];
    gw[10] = false;
    let alive = vec![true; 11];
    let mut routes = BackboneRoutes::new();
    routes.install(&gw, &alive);
    assert_eq!(
        routes.distances(&g, 0).unwrap()[..10],
        [0, 1, 2, 3, 4, 5, 6, 7, 8, 9]
    );

    // 9 leaves (its subtree is itself) while 10 joins: 5..=8 sit outside
    // the cut and get shorter through 10.
    gw[9] = false;
    gw[10] = true;
    routes.install(&gw, &alive);
    let dist = routes.distances(&g, 0).unwrap().to_vec();
    assert_eq!(dist, [0, 1, 2, 3, 4, 4, 3, 2, 3, u32::MAX, 1]);
    assert_eq!((routes.trees_built(), routes.trees_repaired()), (0, 1));
    check_tables(&mut routes, &g, &gw, &alive, "shortcut");
}

/// Hosts on a line, 20 apart at radius 25: a path whose interior hosts
/// are the backbone.
fn line_net(hosts: usize) -> ChurnNet {
    let points: Vec<Point2> = (0..hosts)
        .map(|i| Point2::new(20.0 * i as f64, 5.0))
        .collect();
    let bounds = Rect::new(0.0, 0.0, 20.0 * hosts as f64, 10.0);
    let energy = vec![50; hosts];
    ChurnNet::open(
        ShardSpec::new(1),
        bounds,
        25.0,
        &points,
        &energy,
        &CdsConfig::policy(Policy::Degree),
    )
    .expect("a line is shardable")
}

#[test]
fn a_kill_that_splits_the_backbone_reports_gateway_path_missing() {
    let mut net = line_net(21);
    let mut dp = Dataplane::new();
    dp.install_tables(net.gateway(), net.alive());
    let mut out = Vec::new();
    dp.routes_mut()
        .assemble(net.graph(), 0, 20, &mut out)
        .unwrap();
    assert_eq!(hop_count(&out), 20);

    net.kill(3).unwrap();
    net.refresh();
    dp.install_tables(net.gateway(), net.alive());
    assert_eq!(
        dp.routes_mut().assemble(net.graph(), 0, 20, &mut out),
        Err(RouteError::GatewayPathMissing)
    );
    let routes = dp.routes();
    assert_eq!(
        (routes.trees_built(), routes.trees_repaired()),
        (0, 1),
        "the split is repaired"
    );
    check_tables(
        dp.routes_mut(),
        net.graph(),
        net.gateway(),
        net.alive(),
        "split",
    );
}

#[test]
fn back_to_back_installs_rebuild_the_tree() {
    let mut net = line_net(21);
    let mut dp = Dataplane::new();
    dp.install_tables(net.gateway(), net.alive());
    let mut out = Vec::new();
    dp.routes_mut()
        .assemble(net.graph(), 10, 20, &mut out)
        .unwrap();
    for v in [3, 5] {
        net.kill(v).unwrap();
        net.refresh();
        dp.install_tables(net.gateway(), net.alive());
    }
    dp.routes_mut()
        .assemble(net.graph(), 10, 20, &mut out)
        .unwrap();
    assert_eq!(hop_count(&out), 10);
    let routes = dp.routes();
    assert_eq!(
        (routes.trees_built(), routes.trees_repaired()),
        (1, 0),
        "two installs old"
    );
    check_tables(
        dp.routes_mut(),
        net.graph(),
        net.gateway(),
        net.alive(),
        "back to back",
    );
}
