//! Live-socket integration tests: real `TcpListener`, real worker pool.
//!
//! Covers the failure-handling contract end to end — malformed, truncated
//! and oversized frames produce typed errors (never a panic, never a
//! hang), backpressure answers with a fast `REJECTED`, graceful shutdown
//! drains queued work and is prompt even under a streaming client — plus
//! concurrent clients hammering one cache. The frame-server cases run
//! against both a `pacds-serve` server and a `pacds-cluster` coordinator
//! fronting one: both binaries share the frame server, so both must keep
//! the same contract.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use pacds_cluster::{cluster, BackendSpec, ClusterConfig, ClusterHandle};
use pacds_core::{CdsConfig, Policy};
use pacds_serve::protocol::{
    self, decode_error, encode_ping, ErrorCode, GenComputeRequest, ResponseKind, LEN_PREFIX,
    PROTOCOL_VERSION,
};
use pacds_serve::{serve, Client, ClientError, ServerConfig, StatsFormat};

fn tiny_server(workers: usize, queue: usize) -> pacds_serve::ServerHandle {
    serve(
        "127.0.0.1:0",
        ServerConfig {
            workers,
            queue,
            cache_bytes: 4 << 20,
            shard: Default::default(),
            metrics_addr: None,
        },
    )
    .expect("bind ephemeral port")
}

/// The frame server under test: a server, or a coordinator fronting one.
enum Rig {
    Server(pacds_serve::ServerHandle),
    // Fields drop in order: the coordinator stops before its backend.
    Coordinator {
        coord: ClusterHandle,
        _backend: pacds_serve::ServerHandle,
    },
}

/// Builds each kind of frame server with `workers` and `queue`.
fn rigs(workers: usize, queue: usize) -> [Rig; 2] {
    let backend = tiny_server(4, 8);
    let coord = cluster(
        "127.0.0.1:0",
        &[BackendSpec::new("b0", backend.addr().to_string())],
        ClusterConfig {
            workers,
            queue,
            ..ClusterConfig::default()
        },
    )
    .expect("bind coordinator");
    [
        Rig::Server(tiny_server(workers, queue)),
        Rig::Coordinator {
            coord,
            _backend: backend,
        },
    ]
}

impl Rig {
    fn name(&self) -> &'static str {
        match self {
            Rig::Server(_) => "server",
            Rig::Coordinator { .. } => "coordinator",
        }
    }

    fn addr(&self) -> SocketAddr {
        match self {
            Rig::Server(s) => s.addr(),
            Rig::Coordinator { coord: c, .. } => c.addr(),
        }
    }

    fn shutdown(&mut self) {
        match self {
            Rig::Server(s) => s.shutdown(),
            Rig::Coordinator { coord: c, .. } => c.shutdown(),
        }
    }

    fn rejected(&self) -> u64 {
        match self {
            Rig::Server(s) => s.state().stats.rejected.load(Ordering::Relaxed),
            Rig::Coordinator { coord: c, .. } => c.state().stats.rejected.load(Ordering::Relaxed),
        }
    }

    fn protocol_errors(&self) -> u64 {
        match self {
            Rig::Server(s) => s.state().stats.protocol_errors.load(Ordering::Relaxed),
            Rig::Coordinator { coord: c, .. } => {
                c.state().stats.protocol_errors.load(Ordering::Relaxed)
            }
        }
    }
}

/// Reads one `[len][payload]` frame with a timeout already set on `conn`.
fn read_frame(conn: &mut TcpStream) -> std::io::Result<Vec<u8>> {
    let mut prefix = [0u8; LEN_PREFIX];
    conn.read_exact(&mut prefix)?;
    let len = u32::from_le_bytes(prefix) as usize;
    let mut payload = vec![0u8; len];
    conn.read_exact(&mut payload)?;
    Ok(payload)
}

fn raw_conn(addr: SocketAddr) -> TcpStream {
    let conn = TcpStream::connect(addr).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    conn
}

#[test]
fn ping_compute_and_stats_round_trip() {
    let server = tiny_server(2, 4);
    let mut client = Client::connect(server.addr()).unwrap();
    client.ping().unwrap();
    let cfg = CdsConfig::sequential(Policy::Degree);
    let edges = [(0u32, 1), (1, 2), (2, 3), (1, 3)];
    let a = client.compute_cds(&cfg, 4, &edges, None, 0, 0).unwrap();
    assert!(!a.cache_hit);
    let b = client.compute_cds(&cfg, 4, &edges, None, 0, 0).unwrap();
    assert!(b.cache_hit, "second identical request served from cache");
    assert_eq!(a.mask, b.mask);
    let stats = client.stats(StatsFormat::Table).unwrap();
    assert_eq!(stats.counter("compute"), Some(2));
    assert_eq!(stats.counter("cache_hits"), Some(1));
    assert_eq!(stats.counter("pings"), Some(1));
}

#[test]
fn malformed_truncated_and_oversized_frames_get_typed_errors() {
    for rig in rigs(2, 4) {
        let what = rig.name();

        // Unsupported version: typed error, then the server closes.
        let mut conn = raw_conn(rig.addr());
        conn.write_all(&[2, 0, 0, 0, 99, 0x01]).unwrap();
        let payload = read_frame(&mut conn).unwrap();
        assert_eq!(ResponseKind::from_wire(payload[1]), Some(ResponseKind::Error), "{what}");
        let e = decode_error(&payload[2..]).unwrap();
        assert_eq!(e.code, ErrorCode::UnsupportedVersion, "{what}");
        assert_eq!(conn.read(&mut [0u8; 1]).unwrap(), 0, "{what}: connection closed");

        // Unknown request kind.
        let mut conn = raw_conn(rig.addr());
        conn.write_all(&[2, 0, 0, 0, PROTOCOL_VERSION, 0x6E]).unwrap();
        let e = decode_error(&read_frame(&mut conn).unwrap()[2..]).unwrap();
        assert_eq!(e.code, ErrorCode::UnknownKind, "{what}");

        // Truncated body: a ComputeCds header whose body stops mid-field.
        let mut conn = raw_conn(rig.addr());
        conn.write_all(&[5, 0, 0, 0, PROTOCOL_VERSION, 0x01, 1, 2, 3]).unwrap();
        let e = decode_error(&read_frame(&mut conn).unwrap()[2..]).unwrap();
        assert_eq!(e.code, ErrorCode::Malformed, "{what}");

        // Oversized declared length: typed error before reading the payload.
        let mut conn = raw_conn(rig.addr());
        let huge = (protocol::DEFAULT_MAX_FRAME_LEN + 1).to_le_bytes();
        conn.write_all(&huge).unwrap();
        let e = decode_error(&read_frame(&mut conn).unwrap()[2..]).unwrap();
        assert_eq!(e.code, ErrorCode::Oversized, "{what}");
        assert_eq!(conn.read(&mut [0u8; 1]).unwrap(), 0, "{what}: connection closed");

        // A half-written frame followed by a client hangup must not wedge a
        // worker: the server stays fully responsive afterwards.
        let mut conn = raw_conn(rig.addr());
        conn.write_all(&[9, 0]).unwrap();
        drop(conn);
        let mut client = Client::connect(rig.addr()).unwrap();
        client.ping().unwrap();

        assert_eq!(rig.protocol_errors(), 4, "{what}");
    }
}

#[test]
fn bad_input_keeps_the_connection_usable() {
    let server = tiny_server(1, 4);
    let mut client = Client::connect(server.addr()).unwrap();
    let cfg = CdsConfig::policy(Policy::Id);
    let err = client
        .compute_cds(&cfg, 3, &[(0, 7)], None, 0, 0)
        .unwrap_err();
    match err {
        ClientError::Wire(e) => assert_eq!(e.code, ErrorCode::BadInput),
        other => panic!("expected BadInput, got {other}"),
    }
    // Same connection still serves valid requests.
    let ok = client.compute_cds(&cfg, 3, &[(0, 1), (1, 2)], None, 0, 0).unwrap();
    assert_eq!(ok.mask.len(), 3);
}

/// Expects the typed `BadInput` answer, then a `Ping` on the same
/// connection.
fn assert_bad_input_then_ping(client: &mut Client, err: ClientError, what: &str) {
    match err {
        ClientError::Wire(e) => assert_eq!(e.code, ErrorCode::BadInput, "{what}"),
        other => panic!("{what}: expected BadInput, got {other}"),
    }
    client.ping().unwrap();
}

#[test]
fn a_tiny_frame_cannot_demand_a_gigabyte_workspace() {
    for rig in rigs(2, 4) {
        let mut client = Client::connect(rig.addr()).unwrap();
        // Literal Rule 2 is unshardable, so this runs on the whole-graph
        // workspace, whose bitmap at MAX_NODES hosts would take ~500 GB.
        let cfg = CdsConfig::paper(Policy::Degree);
        let err = client
            .compute_cds(&cfg, protocol::MAX_NODES, &[], None, 0, 0)
            .unwrap_err();
        assert_bad_input_then_ping(&mut client, err, rig.name());
    }
}

#[test]
fn a_tiny_frame_cannot_demand_a_complete_graph() {
    for rig in rigs(2, 4) {
        let mut client = Client::connect(rig.addr()).unwrap();
        // Every host within range of every other: ~2·10¹² edges.
        let req = GenComputeRequest {
            flags: 0,
            deadline_ms: 0,
            cfg: CdsConfig::policy(Policy::Degree),
            n: protocol::MAX_NODES,
            seed: 1,
            radius: 10.0,
            side: 1.0,
            connected: false,
            energy_seed: None,
        };
        let err = client.gen_compute(&req).unwrap_err();
        assert_bad_input_then_ping(&mut client, err, rig.name());
    }
}

#[test]
fn backpressure_rejects_with_a_typed_frame() {
    // One worker, queue depth one. The worker is pinned by connection A;
    // B fills the queue; C must be REJECTED immediately.
    for rig in rigs(1, 1) {
        let what = rig.name();
        let mut a = Client::connect(rig.addr()).unwrap();
        a.ping().unwrap(); // guarantees the worker owns connection A

        let b = raw_conn(rig.addr());
        std::thread::sleep(Duration::from_millis(200)); // let B enter the queue

        let mut c = raw_conn(rig.addr());
        let payload = read_frame(&mut c).expect("REJECTED arrives without any request");
        assert_eq!(ResponseKind::from_wire(payload[1]), Some(ResponseKind::Error), "{what}");
        let e = decode_error(&payload[2..]).unwrap();
        assert_eq!(e.code, ErrorCode::Rejected, "{what}");
        assert!(!e.code.is_connection_fatal(), "REJECTED is retryable");
        assert_eq!(c.read(&mut [0u8; 1]).unwrap(), 0, "{what}: rejected conn closed");

        // Releasing A lets the worker drain B: the queued connection is
        // served, not dropped.
        drop(a);
        let mut b = b;
        encode_frame_ping(&mut b);
        let payload = read_frame(&mut b).unwrap();
        assert_eq!(ResponseKind::from_wire(payload[1]), Some(ResponseKind::Pong), "{what}");

        assert_eq!(rig.rejected(), 1, "{what}");
    }
}

fn encode_frame_ping(conn: &mut TcpStream) {
    let mut frame = Vec::new();
    encode_ping(&mut frame);
    conn.write_all(&frame).unwrap();
}

#[test]
fn graceful_shutdown_drains_queued_work() {
    for mut rig in rigs(1, 2) {
        let what = rig.name();
        let addr = rig.addr();

        // Pin the worker with connection A, queue B with a request already
        // written, then shut down. B's request must still be answered.
        let mut a = Client::connect(addr).unwrap();
        a.ping().unwrap();
        let mut b = raw_conn(addr);
        encode_frame_ping(&mut b);
        std::thread::sleep(Duration::from_millis(200)); // B reaches the queue

        let closer = std::thread::spawn(move || {
            rig.shutdown();
            rig
        });
        // The idle connection A is released by the shutdown poll; the worker
        // then drains B.
        let payload = read_frame(&mut b).expect("queued request served during drain");
        assert_eq!(ResponseKind::from_wire(payload[1]), Some(ResponseKind::Pong), "{what}");
        let rig = closer.join().unwrap();

        // Fully stopped: new connections are refused (or reset immediately).
        assert!(
            TcpStream::connect(addr).is_err()
                || TcpStream::connect(addr)
                    .and_then(|mut c| {
                        c.set_read_timeout(Some(Duration::from_secs(2)))?;
                        let mut frame = Vec::new();
                        encode_ping(&mut frame);
                        c.write_all(&frame)?;
                        match c.read(&mut [0u8; 8])? {
                            0 => Ok(()),
                            _ => Err(std::io::Error::other("served after shutdown")),
                        }
                    })
                    .is_ok(),
            "{what}: no service after shutdown"
        );
        drop(rig);
    }
}

#[test]
fn shutdown_with_idle_workers_is_prompt_and_idempotent() {
    for mut rig in rigs(4, 8) {
        let t0 = Instant::now();
        rig.shutdown();
        rig.shutdown(); // second call is a no-op
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "{}: idle shutdown must not hang",
            rig.name()
        );
    }
}

#[test]
fn shutdown_under_a_streaming_client_is_prompt_and_idempotent() {
    // A client that never leaves its connection idle must not pin its
    // worker past shutdown: the loop checks the flag between frames.
    for mut rig in rigs(1, 2) {
        let what = rig.name();
        let mut client = Client::connect(rig.addr()).unwrap();
        client.ping().unwrap();
        let streamer = std::thread::spawn(move || {
            let mut pings = 1u64;
            while client.ping().is_ok() {
                pings += 1;
            }
            pings
        });
        std::thread::sleep(Duration::from_millis(100));
        let t0 = Instant::now();
        rig.shutdown();
        rig.shutdown(); // second call is a no-op
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "{what}: shutdown must not wait for a streaming client"
        );
        let pings = streamer.join().unwrap();
        assert!(pings > 1, "{what}: the client streamed before shutdown");
    }
}

#[test]
fn concurrent_clients_share_the_cache_consistently() {
    // Eight client threads, two distinct topologies, a cache big enough
    // for both: every response for a topology must be bit-identical, and
    // hits + misses must equal total compute requests.
    let server = tiny_server(4, 16);
    let addr = server.addr();
    let cfg = CdsConfig::sequential(Policy::Degree);
    let topo_a: Vec<(u32, u32)> = (0..41u32).map(|i| (i, (i + 1) % 41)).collect(); // cycle
    let topo_b: Vec<(u32, u32)> = (0..40u32).map(|i| (i, i + 1)).collect(); // path

    let mut handles = Vec::new();
    for t in 0..8 {
        let topo = if t % 2 == 0 { topo_a.clone() } else { topo_b.clone() };
        handles.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            let mut first_mask = None;
            for _ in 0..50 {
                let r = client.compute_cds(&cfg, 41, &topo, None, 0, 0).unwrap();
                match &first_mask {
                    None => first_mask = Some(r.mask.clone()),
                    Some(m) => assert_eq!(&r.mask, m, "cached result must be bit-identical"),
                }
            }
            first_mask.unwrap()
        }));
    }
    let masks: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    // Same topology → same mask across threads.
    assert_eq!(masks[0], masks[2]);
    assert_eq!(masks[1], masks[3]);

    let cache = server.state().cache.stats();
    assert_eq!(cache.hits + cache.misses, 400, "every request hit the cache path");
    assert!(cache.hits >= 398, "at most one miss per distinct topology");
    assert_eq!(cache.entries, 2);
}

#[test]
fn concurrent_cold_requests_for_one_topology_compute_once() {
    // N clients send the same slow cold request at the same moment. The
    // first miss claims the digest; the rest wait for its insert and copy
    // the cached frame, so the server computes exactly once.
    const N: usize = 4;
    let server = tiny_server(N, 2 * N);
    let addr = server.addr();
    let req = GenComputeRequest {
        flags: 0,
        deadline_ms: 0,
        cfg: CdsConfig::policy(Policy::Degree),
        n: 20_000,
        seed: 5,
        radius: 10.0,
        side: 1000.0,
        connected: false,
        energy_seed: Some(9),
    };
    let start = Arc::new(Barrier::new(N));
    let handles: Vec<_> = (0..N)
        .map(|_| {
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                client.ping().unwrap(); // each client owns a worker
                start.wait();
                client.gen_compute(&req).unwrap()
            })
        })
        .collect();
    let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert_eq!(results.iter().filter(|r| !r.cache_hit).count(), 1, "one computed answer");
    for r in &results {
        assert_eq!(r.mask, results[0].mask, "every answer is the same frame");
    }
    let cache = server.state().cache.stats();
    assert_eq!((cache.misses, cache.hits), (1, N as u64 - 1), "one miss, the waiters hit");
    assert_eq!(cache.entries, 1);
}

#[test]
fn eviction_races_stay_consistent_on_a_live_server() {
    // A cache too small for the working set: concurrent hits, misses and
    // evictions must still produce correct (recomputable) results.
    let server = serve(
        "127.0.0.1:0",
        ServerConfig {
            workers: 4,
            queue: 16,
            // Roughly two result frames' worth per shard: constant churn.
            cache_bytes: 16 * 400,
            shard: Default::default(),
            metrics_addr: None,
        },
    )
    .unwrap();
    let addr = server.addr();
    let cfg = CdsConfig::policy(Policy::Degree);
    let mut handles = Vec::new();
    for t in 0..4u32 {
        handles.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            for round in 0..40u32 {
                // 64 distinct topologies across ~16 shards: more keys per
                // shard than the byte budget holds, so eviction is certain.
                let k = (t * 31 + round * 7) % 64;
                // Path graphs of varying length: distinct digests.
                let n = 10 + k;
                let edges: Vec<(u32, u32)> = (0..n - 1).map(|i| (i, i + 1)).collect();
                let r = client.compute_cds(&cfg, n, &edges, None, 0, 0).unwrap();
                // A path's pruned backbone is its interior: n - 2 hosts
                // for NR-free policies — independently checkable.
                assert_eq!(r.mask.len(), n as usize);
                assert!(r.gateways > 0);
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let stats = server.state().cache.stats();
    assert!(stats.evictions > 0, "undersized cache must evict under load");
    assert_eq!(
        server
            .state()
            .stats
            .protocol_errors
            .load(std::sync::atomic::Ordering::Relaxed),
        0
    );
}

#[test]
fn deadline_exceeded_over_the_wire() {
    let server = tiny_server(1, 4);
    let mut client = Client::connect(server.addr()).unwrap();
    let cfg = CdsConfig::policy(Policy::Degree);
    // A 1 ms deadline with a cold large-ish topology: the deadline check
    // after compute fires (and on very fast machines the request may
    // still make it — accept either, but a typed error must be Deadline).
    let edges: Vec<(u32, u32)> = (0..1999u32).map(|i| (i, i + 1)).collect();
    match client.compute_cds(&cfg, 2000, &edges, None, protocol::FLAG_NO_CACHE, 1) {
        Ok(r) => assert_eq!(r.mask.len(), 2000),
        Err(ClientError::Wire(e)) => assert_eq!(e.code, ErrorCode::DeadlineExceeded),
        Err(other) => panic!("unexpected error: {other}"),
    }
    // The connection survives a deadline miss.
    client.ping().unwrap();
}
