//! Live-socket telemetry streaming: Subscribe / StatsDelta / FlipEvent
//! against a running server, plus the Prometheus scrape listener.
//!
//! * A flip subscriber receives, for every Mutate batch, exactly the tiles
//!   the batch dirtied — verified against a local [`ChurnEngine`] replay.
//! * A deliberately stalled subscriber is retired (dropped or NACKed with
//!   `SubscriberLagged`) while concurrent ComputeCds requests keep being
//!   served: slow consumers can never stall the data path.
//! * Stats subscriptions deliver monotonically-sequenced window frames at
//!   the requested cadence.

use std::io::{Read, Write};
use std::time::{Duration, Instant};

use pacds_core::{CdsConfig, Policy};
use pacds_geom::{Point2, Rect};
use pacds_serve::{
    serve, Client, ClientError, ErrorCode, Push, ServerConfig, WireEvent, SUB_FLIPS, SUB_STATS,
};
use pacds_shard::{ChurnEngine, ChurnEvent, ShardSpec, REQUIRED_HALO};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const BOUNDS: (f64, f64, f64, f64) = (0.0, 0.0, 100.0, 100.0);

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

fn instance(seed: u64, n: usize) -> (Vec<(f64, f64)>, Vec<u64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let points = (0..n)
        .map(|_| (rng.random_range(0.0..100.0), rng.random_range(0.0..100.0)))
        .collect();
    let energy = (0..n).map(|_| rng.random_range(5u64..100)).collect();
    (points, energy)
}

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

#[test]
fn flip_events_deliver_exactly_the_dirtied_tiles() {
    let server = tiny_server();
    let mut owner = Client::connect(server.addr()).unwrap();
    let cfg = CdsConfig::policy(Policy::EnergyDegree);
    let (points, energy) = instance(0xF11B, 80);
    let mut local = mirror(9, 10.0, &points, &energy, &cfg);
    owner
        .open_graph("fleet", &cfg, 9, 10.0, BOUNDS, &points, &energy)
        .unwrap();

    // One subscriber filtered to the graph, one listening to all graphs.
    let mut named = Client::connect(server.addr()).unwrap();
    let ack = named.subscribe(SUB_FLIPS, 0, Some("fleet")).unwrap();
    assert_eq!(ack.flags, SUB_FLIPS);
    let mut all = Client::connect(server.addr()).unwrap();
    let ack2 = all.subscribe(SUB_FLIPS, 0, None).unwrap();
    assert_ne!(ack.subscriber_id, ack2.subscriber_id);
    named
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    all.set_read_timeout(Some(Duration::from_secs(10))).unwrap();

    // Two mutation batches; each must arrive as one flip event whose tile
    // list is exactly the batch's dirty set in the local replay.
    let batches: [&[WireEvent]; 2] = [
        &[
            WireEvent::Kill { node: 3 },
            WireEvent::Move {
                node: 5,
                x: 10.0,
                y: 10.0,
            },
        ],
        &[WireEvent::Add {
            x: 50.0,
            y: 50.0,
            energy: 40,
        }],
    ];
    for (i, batch) in batches.iter().enumerate() {
        for ev in batch.iter() {
            local.apply(&to_local(ev)).unwrap();
        }
        let mut expect_tiles: Vec<u32> = local.dirty_tiles().iter().map(|&t| t as u32).collect();
        expect_tiles.sort_unstable();
        let stats = local.refresh();
        let result = owner.mutate("fleet", batch).unwrap();

        for sub in [&mut named, &mut all] {
            let Push::Flip(ev) = sub.next_push().unwrap() else {
                panic!("expected a flip event");
            };
            assert_eq!(ev.name, "fleet");
            assert_eq!(ev.refresh_seq, i as u64 + 1, "one event per refresh");
            let mut got = ev.tiles.clone();
            got.sort_unstable();
            assert_eq!(got, expect_tiles, "exactly the dirtied tiles");
            assert_eq!(ev.tiles.len() as u32, result.dirty_tiles);
            assert_eq!(ev.gateway_flips, stats.gateway_flips);
            assert_eq!(ev.gateways, result.gateways);
        }
    }
}

#[test]
fn named_subscription_requires_an_open_graph_and_filters_others() {
    let server = tiny_server();
    let mut owner = Client::connect(server.addr()).unwrap();
    let cfg = CdsConfig::policy(Policy::Degree);
    let (points, energy) = instance(7, 40);

    // Subscribing to a graph nobody opened is a typed, recoverable error.
    let mut sub = Client::connect(server.addr()).unwrap();
    let err = sub.subscribe(SUB_FLIPS, 0, Some("ghost")).unwrap_err();
    match err {
        ClientError::Wire(e) => assert_eq!(e.code, ErrorCode::UnknownGraph),
        other => panic!("expected a wire error, got {other:?}"),
    }

    owner
        .open_graph("a", &cfg, 4, 20.0, BOUNDS, &points, &energy)
        .unwrap();
    owner
        .open_graph("b", &cfg, 4, 20.0, BOUNDS, &points, &energy)
        .unwrap();
    // The connection survived the rejected subscribe; use it for real now.
    sub.subscribe(SUB_FLIPS, 0, Some("a")).unwrap();
    sub.set_read_timeout(Some(Duration::from_secs(10))).unwrap();

    // A mutate on the *other* graph must not reach this subscriber; the
    // following mutate on the subscribed graph must be the first frame.
    owner.mutate("b", &[WireEvent::Kill { node: 1 }]).unwrap();
    owner.mutate("a", &[WireEvent::Kill { node: 2 }]).unwrap();
    let Push::Flip(ev) = sub.next_push().unwrap() else {
        panic!("expected a flip event");
    };
    assert_eq!(ev.name, "a", "events for other graphs are filtered out");
    assert_eq!(ev.refresh_seq, 1);
}

#[test]
fn stats_subscription_pushes_sequenced_windows() {
    let server = tiny_server();
    let mut sub = Client::connect(server.addr()).unwrap();
    let ack = sub.subscribe(SUB_STATS, 20, None).unwrap();
    assert_eq!(ack.interval_ms, 20);
    sub.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut last_seq = 0;
    for i in 0..3 {
        let Push::Stats(w) = sub.next_push().unwrap() else {
            panic!("expected a stats window");
        };
        if i > 0 {
            assert_eq!(w.seq, last_seq + 1, "windows are consecutively sequenced");
        }
        assert!(w.dt_us > 0, "a window spans real time");
        last_seq = w.seq;
    }
}

#[test]
fn stalled_subscriber_is_retired_without_stalling_the_data_path() {
    let server = tiny_server();
    let mut sub = Client::connect(server.addr()).unwrap();
    sub.subscribe(SUB_FLIPS, 0, None).unwrap();
    // From here on the subscriber never reads: its socket buffers fill,
    // its hub queue overflows, and the push thread must retire it.

    let state = server.state();
    let deadline = Instant::now() + Duration::from_secs(30);
    while state.hub.is_empty() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(state.hub.len(), 1, "subscriber registered");

    // Flood with oversized flip events (published straight through the
    // hub — the same call the Mutate path makes) while hammering the
    // compute path on a separate connection.
    let big: Vec<u32> = (0..100_000).collect();
    let cfg = CdsConfig::policy(Policy::Degree);
    let edges = [(0, 1), (1, 2)];
    let mut compute = Client::connect(server.addr()).unwrap();
    let deadline = Instant::now() + Duration::from_secs(60);
    while !state.hub.is_empty() && Instant::now() < deadline {
        for seq in 0..8 {
            state.hub.publish_flip("flood", seq, 1, 1, &big);
        }
        // The data path must stay responsive throughout the flood.
        let result = compute.compute_cds(&cfg, 3, &edges, None, 0, 0).unwrap();
        assert!(result.gateways >= 1);
    }
    assert!(state.hub.is_empty(), "stalled subscriber was retired");
    assert!(
        state.hub.dropped() > 0 || state.hub.lagged_total() > 0,
        "the retirement is surfaced in the drop/lag counters"
    );
}

#[test]
fn mixed_loadgen_reports_per_kind_latencies() {
    let server = tiny_server();
    let report = pacds_serve::loadgen::run(&pacds_serve::LoadgenConfig {
        addr: server.addr().to_string(),
        concurrency: 2,
        duration: Duration::from_millis(300),
        mode: pacds_serve::Mode::Closed,
        cds: CdsConfig::policy(Policy::Degree),
        n: 60,
        radius: 15.0,
        side: 100.0,
        seed: 3,
        gen_seeds: 0,
        no_cache: false,
        deadline_ms: 0,
        mutate_every: 5,
        query_every: 3,
    })
    .expect("mixed loadgen run");
    assert!(report.compute.requests > 0, "computes ran");
    assert!(report.mutate.requests > 0, "mutates ran");
    assert!(report.query.requests > 0, "tile queries ran");
    assert_eq!(
        report.requests,
        report.compute.requests + report.mutate.requests + report.query.requests,
        "every successful request is attributed to exactly one kind"
    );
    assert_eq!(report.protocol_errors, 0, "the mixed workload is all-valid");
    let j = report.to_json();
    assert!(j.contains("\"by_kind\":{\"compute_cds\":{"), "json: {j}");
}

#[test]
fn metrics_listener_answers_a_plain_http_scrape() {
    let server = serve(
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            queue: 2,
            cache_bytes: 1 << 20,
            shard: Default::default(),
            metrics_addr: Some("127.0.0.1:0".into()),
        },
    )
    .expect("bind ephemeral ports");
    let maddr = server.metrics_addr().expect("metrics listener bound");
    let mut conn = std::net::TcpStream::connect(maddr).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    conn.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
    let mut resp = String::new();
    let _ = conn.read_to_string(&mut resp);
    assert!(
        resp.starts_with("HTTP/1.0 200 OK\r\n"),
        "got response head: {resp:?}"
    );
    assert!(resp.contains("Content-Type: text/plain"));
    assert!(resp.contains("Content-Length:"));
}
