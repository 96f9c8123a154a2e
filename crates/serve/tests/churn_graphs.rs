//! Persistent named graphs over the wire: OpenGraph / Mutate /
//! CloseGraph / QueryTile against a live server.
//!
//! * Mutation results and tile verdicts are compared bit-for-bit against
//!   a local [`ChurnEngine`] replaying the same events.
//! * Tile responses carry no cache flag, so cache-cold and cache-warm
//!   round trips are asserted **byte-identical**; cache behaviour is
//!   observed through the stats counters instead.
//! * A mutation invalidates exactly its dirty tiles' cached responses:
//!   clean tiles keep cache-hitting, dirty tiles are recomputed.
//! * Protocol abuse (unknown graphs, double kills, out-of-domain moves,
//!   reopens, bad event kinds, truncated bodies) produces typed errors —
//!   recoverable ones keep the connection; framing damage closes it.

use std::io::{Read, Write};

use pacds_core::{CdsConfig, Policy};
use pacds_geom::{Point2, Rect};
use pacds_serve::protocol::{self, decode_error, ErrorCode, LEN_PREFIX};
use pacds_serve::{
    serve, Client, ClientError, ServerConfig, StatsFormat, WireEvent, MAX_OPEN_GRAPHS,
};
use pacds_shard::{ChurnEngine, ChurnEvent, ShardSpec, REQUIRED_HALO};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn tiny_server() -> pacds_serve::ServerHandle {
    serve(
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            queue: 4,
            cache_bytes: 4 << 20,
            shard: Default::default(),
            metrics_addr: None,
        },
    )
    .expect("bind ephemeral port")
}

const BOUNDS: (f64, f64, f64, f64) = (0.0, 0.0, 100.0, 100.0);

/// Deterministic random instance shared by the client and the local
/// mirror engine.
fn instance(seed: u64, n: usize) -> (Vec<(f64, f64)>, Vec<u64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let points = (0..n)
        .map(|_| (rng.random_range(0.0..100.0), rng.random_range(0.0..100.0)))
        .collect();
    let energy = (0..n).map(|_| rng.random_range(5u64..100)).collect();
    (points, energy)
}

/// A local engine mirroring what the server holds for the same open.
fn mirror(
    shards: usize,
    radius: f64,
    points: &[(f64, f64)],
    energy: &[u64],
    cfg: &CdsConfig,
) -> ChurnEngine {
    let pts: Vec<Point2> = points.iter().map(|&(x, y)| Point2::new(x, y)).collect();
    ChurnEngine::open(
        ShardSpec {
            shards,
            halo: REQUIRED_HALO,
            threads: 1,
        },
        Rect::new(BOUNDS.0, BOUNDS.1, BOUNDS.2, BOUNDS.3),
        radius,
        &pts,
        energy,
        cfg,
    )
    .expect("mirror engine opens")
}

fn to_local(ev: &WireEvent) -> ChurnEvent {
    match *ev {
        WireEvent::Add { x, y, energy } => ChurnEvent::AddNode {
            pos: Point2::new(x, y),
            energy,
        },
        WireEvent::Move { node, x, y } => ChurnEvent::MoveNode {
            node,
            to: Point2::new(x, y),
        },
        WireEvent::Kill { node } => ChurnEvent::KillNode { node },
        WireEvent::Drain { node, remaining } => ChurnEvent::DrainBattery { node, remaining },
    }
}

fn wire_code(err: ClientError) -> ErrorCode {
    match err {
        ClientError::Wire(e) => e.code,
        other => panic!("expected a typed wire error, got {other:?}"),
    }
}

#[test]
fn mutate_and_query_match_a_local_engine_replay() {
    let server = tiny_server();
    let mut client = Client::connect(server.addr()).unwrap();
    let cfg = CdsConfig::policy(Policy::EnergyDegree);
    let (points, energy) = instance(0xA11CE, 60);
    let mut local = mirror(9, 25.0, &points, &energy, &cfg);

    let opened = client
        .open_graph("fleet", &cfg, 9, 25.0, BOUNDS, &points, &energy)
        .unwrap();
    assert_eq!(opened.tiles as usize, local.tiles());
    assert_eq!(opened.n as usize, local.n());
    assert_eq!(opened.gateways as usize, local.gateway_count());

    let events = [
        WireEvent::Kill { node: 3 },
        WireEvent::Move {
            node: 5,
            x: 10.0,
            y: 10.0,
        },
        WireEvent::Drain {
            node: 7,
            remaining: 2,
        },
        WireEvent::Add {
            x: 50.0,
            y: 50.0,
            energy: 33,
        },
    ];
    for ev in &events {
        local.apply(&to_local(ev)).unwrap();
    }
    let stats = local.refresh();

    let result = client.mutate("fleet", &events).unwrap();
    assert_eq!(result.applied, 4);
    assert_eq!(result.dirty_tiles as usize, stats.dirty_tiles);
    assert_eq!(result.resolved_tiles as usize, stats.resolved_tiles);
    assert_eq!(result.total_tiles as usize, stats.total_tiles);
    assert_eq!(result.gateway_flips, stats.gateway_flips);
    assert_eq!(result.gateways as usize, local.gateway_count());
    assert_eq!(result.n as usize, local.n());

    for t in 0..local.tiles() {
        let tile = client.query_tile("fleet", t as u32).unwrap();
        assert_eq!(tile.tile as usize, t);
        assert_eq!(tile.entries, local.tile_result(t), "tile {t} diverged");
    }
    client.close_graph("fleet").unwrap();
}

#[test]
fn tile_responses_are_byte_identical_cold_and_warm() {
    let server = tiny_server();
    let mut client = Client::connect(server.addr()).unwrap();
    let cfg = CdsConfig::policy(Policy::Degree);
    let (points, energy) = instance(7, 40);
    client
        .open_graph("bytes", &cfg, 4, 20.0, BOUNDS, &points, &energy)
        .unwrap();

    let mut frame = Vec::new();
    protocol::encode_query_tile(&mut frame, "bytes", 1);
    let cold = client.send_raw(&frame).unwrap();
    let warm = client.send_raw(&frame).unwrap();
    assert_eq!(cold, warm, "cache state must be invisible in the bytes");

    let stats = client.stats(StatsFormat::Table).unwrap();
    assert_eq!(stats.counter("tile_queries"), Some(2));
    assert_eq!(stats.counter("cache_hits"), Some(1), "second query hit");
}

#[test]
fn mutation_invalidates_exactly_the_dirty_tiles() {
    let server = tiny_server();
    let mut client = Client::connect(server.addr()).unwrap();
    let cfg = CdsConfig::policy(Policy::EnergyDegree);
    let (points, energy) = instance(0xD1A7, 80);
    let mut local = mirror(9, 10.0, &points, &energy, &cfg);
    let opened = client
        .open_graph("inv", &cfg, 9, 10.0, BOUNDS, &points, &energy)
        .unwrap();
    let tiles = opened.tiles;

    // Warm the whole cache, then verify it is warm.
    for t in 0..tiles {
        client.query_tile("inv", t).unwrap();
    }
    let cold = client.stats(StatsFormat::Table).unwrap();
    for t in 0..tiles {
        client.query_tile("inv", t).unwrap();
    }
    let warm = client.stats(StatsFormat::Table).unwrap();
    assert_eq!(
        warm.counter("cache_hits").unwrap() - cold.counter("cache_hits").unwrap(),
        u64::from(tiles),
        "second sweep must be all hits"
    );

    // Kill the host nearest the origin corner: its 2-hop dirty margin
    // cannot reach the far tiles, so the dirty set is a strict subset.
    let victim = (0..points.len())
        .min_by(|&a, &b| {
            let d = |i: usize| points[i].0 + points[i].1;
            d(a).partial_cmp(&d(b)).unwrap()
        })
        .unwrap() as u32;
    let kill = [WireEvent::Kill { node: victim }];
    local.apply(&to_local(&kill[0])).unwrap();
    local.refresh();
    let result = client.mutate("inv", &kill).unwrap();
    assert!(result.dirty_tiles >= 1, "a kill must dirty its own tile");
    assert!(
        result.dirty_tiles < tiles,
        "a corner kill must not dirty the whole grid"
    );

    // Third sweep: clean tiles still hit, dirty tiles recompute — and
    // every tile (recomputed or retained) matches the local replay.
    for t in 0..tiles {
        let tile = client.query_tile("inv", t).unwrap();
        assert_eq!(tile.entries, local.tile_result(t as usize), "tile {t}");
    }
    let after = client.stats(StatsFormat::Table).unwrap();
    assert_eq!(
        after.counter("cache_hits").unwrap() - warm.counter("cache_hits").unwrap(),
        u64::from(tiles - result.dirty_tiles),
        "exactly the non-dirty tiles keep their cached frames"
    );
}

#[test]
fn rejected_batches_keep_the_applied_prefix() {
    let server = tiny_server();
    let mut client = Client::connect(server.addr()).unwrap();
    let cfg = CdsConfig::policy(Policy::Degree);
    let (points, energy) = instance(0xBAD, 30);
    let mut local = mirror(4, 20.0, &points, &energy, &cfg);
    client
        .open_graph("prefix", &cfg, 4, 20.0, BOUNDS, &points, &energy)
        .unwrap();

    // The second kill targets an already-dead host: the batch is rejected
    // at event index 1, but event 0 stays applied — exactly the engine's
    // validate-then-mutate contract, surfaced over the wire.
    let batch = [WireEvent::Kill { node: 2 }, WireEvent::Kill { node: 2 }];
    let err = client.mutate("prefix", &batch).unwrap_err();
    assert_eq!(wire_code(err), ErrorCode::MutationRejected);

    local.apply(&ChurnEvent::KillNode { node: 2 }).unwrap();
    local.refresh();
    for t in 0..local.tiles() {
        let tile = client.query_tile("prefix", t as u32).unwrap();
        assert_eq!(tile.entries, local.tile_result(t), "tile {t}");
    }

    // An out-of-domain move is likewise rejected without poisoning the
    // graph.
    let oob = [WireEvent::Move {
        node: 1,
        x: BOUNDS.2 + 500.0,
        y: 0.0,
    }];
    let err = client.mutate("prefix", &oob).unwrap_err();
    assert_eq!(wire_code(err), ErrorCode::MutationRejected);
    let tile = client.query_tile("prefix", 0).unwrap();
    assert_eq!(tile.entries, local.tile_result(0));
}

#[test]
fn protocol_abuse_gets_typed_recoverable_errors() {
    let server = tiny_server();
    let mut client = Client::connect(server.addr()).unwrap();
    let cfg = CdsConfig::policy(Policy::Degree);
    let (points, energy) = instance(1, 10);

    // Unknown graph, for every request family.
    let err = client.mutate("ghost", &[WireEvent::Kill { node: 0 }]);
    assert_eq!(wire_code(err.unwrap_err()), ErrorCode::UnknownGraph);
    let err = client.close_graph("ghost");
    assert_eq!(wire_code(err.unwrap_err()), ErrorCode::UnknownGraph);
    let err = client.query_tile("ghost", 0);
    assert_eq!(wire_code(err.unwrap_err()), ErrorCode::UnknownGraph);

    // Reopening an open name.
    client
        .open_graph("dup", &cfg, 4, 20.0, BOUNDS, &points, &energy)
        .unwrap();
    let err = client.open_graph("dup", &cfg, 4, 20.0, BOUNDS, &points, &energy);
    assert_eq!(wire_code(err.unwrap_err()), ErrorCode::GraphExists);

    // Tile index past the grid.
    let err = client.query_tile("dup", 4);
    assert_eq!(wire_code(err.unwrap_err()), ErrorCode::BadInput);

    // Unshardable configuration: typed rejection mirroring the batch
    // engine, not a panic.
    let seq = CdsConfig::sequential(Policy::Degree);
    let err = client.open_graph("seq", &seq, 4, 20.0, BOUNDS, &points, &energy);
    assert_eq!(wire_code(err.unwrap_err()), ErrorCode::BadInput);

    // Bad event kind byte (surgery on a valid frame): recoverable
    // BadInput, connection stays usable.
    let mut frame = Vec::new();
    protocol::encode_mutate(&mut frame, "dup", &[WireEvent::Kill { node: 0 }]);
    let kind_at = frame.len() - 5;
    frame[kind_at] = 9;
    let payload = client.send_raw(&frame).unwrap();
    let e = decode_error(&payload[2..]).unwrap();
    assert_eq!(e.code, ErrorCode::BadInput);
    client
        .ping()
        .expect("connection survived the bad event kind");

    // All of the above left the server consistent.
    let stats = client.stats(StatsFormat::Table).unwrap();
    assert_eq!(stats.counter("graphs_opened"), Some(1));
    assert_eq!(stats.counter("graphs_closed"), Some(0));
}

#[test]
fn truncated_mutate_bodies_close_the_connection() {
    let server = tiny_server();
    let mut conn = std::net::TcpStream::connect(server.addr()).unwrap();
    conn.set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();

    // A structurally valid frame whose body is one byte short of its
    // mutate payload: consistent framing, inconsistent body → Malformed,
    // and the server drops the connection.
    let mut frame = Vec::new();
    protocol::encode_mutate(&mut frame, "g", &[WireEvent::Kill { node: 3 }]);
    frame.pop();
    let len = u32::from_le_bytes(frame[..4].try_into().unwrap()) - 1;
    frame[..4].copy_from_slice(&len.to_le_bytes());
    conn.write_all(&frame).unwrap();

    let mut prefix = [0u8; LEN_PREFIX];
    conn.read_exact(&mut prefix).unwrap();
    let mut payload = vec![0u8; u32::from_le_bytes(prefix) as usize];
    conn.read_exact(&mut payload).unwrap();
    let e = decode_error(&payload[2..]).unwrap();
    assert_eq!(e.code, ErrorCode::Malformed);
    assert_eq!(conn.read(&mut [0u8; 1]).unwrap(), 0, "connection closed");
}

#[test]
fn close_and_reopen_never_serves_stale_tiles() {
    let server = tiny_server();
    let mut client = Client::connect(server.addr()).unwrap();
    let cfg = CdsConfig::policy(Policy::Degree);
    let (old_points, old_energy) = instance(100, 30);
    client
        .open_graph("swap", &cfg, 4, 20.0, BOUNDS, &old_points, &old_energy)
        .unwrap();
    let before = client.query_tile("swap", 0).unwrap();
    client.close_graph("swap").unwrap();

    // Reopen under the same name with a different instance: the fresh
    // uid keys fresh cache slots, so the old cached tile 0 is unreachable.
    let (new_points, new_energy) = instance(200, 30);
    let local = mirror(4, 20.0, &new_points, &new_energy, &cfg);
    client
        .open_graph("swap", &cfg, 4, 20.0, BOUNDS, &new_points, &new_energy)
        .unwrap();
    let after = client.query_tile("swap", 0).unwrap();
    assert_eq!(after.entries, local.tile_result(0));
    assert_ne!(before.entries, after.entries, "instances must differ");
}

#[test]
fn registry_capacity_is_bounded_with_typed_rejection() {
    let server = tiny_server();
    let mut client = Client::connect(server.addr()).unwrap();
    let cfg = CdsConfig::policy(Policy::Id);
    let points = [(0.2, 0.2), (0.8, 0.8)];
    let energy = [5u64, 5];
    let bounds = (0.0, 0.0, 1.0, 1.0);
    for i in 0..MAX_OPEN_GRAPHS {
        client
            .open_graph(&format!("g{i}"), &cfg, 1, 1.0, bounds, &points, &energy)
            .unwrap();
    }
    let err = client.open_graph("overflow", &cfg, 1, 1.0, bounds, &points, &energy);
    assert_eq!(wire_code(err.unwrap_err()), ErrorCode::Rejected);
    // Closing one graph frees a slot.
    client.close_graph("g0").unwrap();
    client
        .open_graph("overflow", &cfg, 1, 1.0, bounds, &points, &energy)
        .unwrap();
}
