//! Live-socket cluster tests: real backends, real coordinator, real
//! failures.
//!
//! These pin the coordinator's failure semantics — the "cold, never
//! wrong" contract:
//!
//! * routing is digest-stable and cache-affine (a repeat request hits the
//!   same backend's cache through the proxy);
//! * a backend dying mid-run fails requests over to a survivor, visibly
//!   (counters) and losslessly (every request still gets a correct,
//!   typed answer);
//! * with *no* backends left the coordinator answers a typed `Rejected`
//!   promptly — it never hangs a client on a dead cluster;
//! * a subscriber that stalls behind the proxy is retired end to end
//!   (backend hub drains, coordinator holds no unbounded buffer) while
//!   the data path keeps answering;
//! * drain is graceful: the drained backend stops receiving new work,
//!   the ring reshards, and nothing errors.

use std::time::{Duration, Instant};

use pacds_cluster::{cluster, BackendSpec, ClusterConfig, ClusterHandle};
use pacds_core::{CdsConfig, Policy};
use pacds_serve::protocol::GenComputeRequest;
use pacds_serve::{serve, Client, ClientError, ErrorCode, ServerConfig, ServerHandle, SUB_FLIPS};

/// Backends sized for fronting: `pacds-serve` parks one worker per open
/// connection, and a coordinator holds persistent connections (pooled
/// relays + the prober), so backend workers must exceed the
/// coordinator's connection appetite — see the sizing note in
/// ARCHITECTURE.md. 6 covers pool + prober + a direct test client.
fn backend() -> ServerHandle {
    serve(
        "127.0.0.1:0",
        ServerConfig {
            workers: 6,
            queue: 8,
            cache_bytes: 4 << 20,
            shard: Default::default(),
            metrics_addr: None,
        },
    )
    .expect("bind backend")
}

/// A coordinator over `backends` with a fast probe cadence so tests see
/// health transitions quickly.
fn coordinator(backends: &[&ServerHandle]) -> ClusterHandle {
    let specs: Vec<BackendSpec> = backends
        .iter()
        .enumerate()
        .map(|(i, b)| BackendSpec::new(format!("b{i}"), b.addr().to_string()))
        .collect();
    cluster(
        "127.0.0.1:0",
        &specs,
        ClusterConfig {
            workers: 2,
            queue: 8,
            probe_interval: Duration::from_millis(50),
            connect_timeout: Duration::from_millis(500),
            ..ClusterConfig::default()
        },
    )
    .expect("bind coordinator")
}

fn gen_req(seed: u64) -> GenComputeRequest {
    GenComputeRequest {
        flags: 0,
        deadline_ms: 0,
        cfg: CdsConfig::policy(Policy::Degree),
        n: 40,
        seed,
        radius: 30.0,
        side: 100.0,
        connected: false,
        energy_seed: None,
    }
}

fn counter(c: &ClusterHandle, name: &str) -> u64 {
    c.state()
        .stats
        .entries(&c.state().backends)
        .into_iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v)
        .unwrap_or(0)
}

#[test]
fn routes_through_the_proxy_with_cache_affinity() {
    let b0 = backend();
    let b1 = backend();
    let coord = coordinator(&[&b0, &b1]);
    let mut client = Client::connect(coord.addr()).unwrap();
    client.ping().unwrap();

    // The same compute twice: the second must hit the owning backend's
    // cache *through* the proxy — proof the coordinator's digest matches
    // the backend's cache key byte for byte.
    let cfg = CdsConfig::sequential(Policy::Degree);
    let edges = [(0u32, 1), (1, 2), (2, 3), (1, 3)];
    let a = client.compute_cds(&cfg, 4, &edges, None, 0, 0).unwrap();
    assert!(!a.cache_hit);
    let b = client.compute_cds(&cfg, 4, &edges, None, 0, 0).unwrap();
    assert!(b.cache_hit, "repeat request served from the backend cache");
    assert_eq!(a.mask, b.mask);

    // Distinct seeds spread across the ring: with 40 keys over 2 backends
    // both must see traffic.
    for seed in 0..40 {
        client.gen_compute(&gen_req(seed)).unwrap();
    }
    let state = coord.state();
    for b in &state.backends {
        let routed = b.routed.load(std::sync::atomic::Ordering::Relaxed);
        assert!(routed > 0, "backend {} received no traffic", b.id);
    }
    assert!(counter(&coord, "cluster.routed") >= 42);
    assert_eq!(counter(&coord, "cluster.no_backend"), 0);
}

#[test]
fn backend_death_mid_run_fails_over_without_errors() {
    let b0 = backend();
    let mut b1 = backend();
    let coord = coordinator(&[&b0, &b1]);
    let mut client = Client::connect(coord.addr()).unwrap();

    // Warm both backends.
    for seed in 0..30 {
        client.gen_compute(&gen_req(seed)).unwrap();
    }

    // Kill one backend, then replay the same keyspace. Every request must
    // still succeed: keys owned by the corpse fail over to the survivor
    // (cold — recomputed — but correct), keys owned by the survivor are
    // untouched cache hits.
    b1.shutdown();
    let mut hits = 0u32;
    for seed in 0..30 {
        let r = client
            .gen_compute(&gen_req(seed))
            .expect("every request answered after backend death");
        hits += u32::from(r.cache_hit);
    }
    assert!(
        counter(&coord, "cluster.failed_over") > 0,
        "failover is observable in the coordinator counters"
    );
    assert!(
        hits > 0,
        "survivor-owned keys kept their cache through the failover"
    );
    assert!(counter(&coord, "cluster.health_flips") >= 1);

    // The dead backend is marked down, so subsequent traffic routes
    // without burning an attempt on it (no further failed_over growth —
    // allow the handful racing the mark-down).
    let fo_before = counter(&coord, "cluster.failed_over");
    for seed in 0..30 {
        client.gen_compute(&gen_req(seed)).unwrap();
    }
    assert!(
        counter(&coord, "cluster.failed_over") <= fo_before + 2,
        "marked-down backend is skipped at routing time, not re-probed per request"
    );
}

#[test]
fn all_backends_down_is_a_fast_typed_rejection() {
    let mut b0 = backend();
    let coord = coordinator(&[&b0]);
    let mut client = Client::connect(coord.addr()).unwrap();
    client.gen_compute(&gen_req(1)).unwrap();

    b0.shutdown();
    let t0 = Instant::now();
    let err = client.gen_compute(&gen_req(2)).unwrap_err();
    match err {
        ClientError::Wire(e) => assert_eq!(e.code, ErrorCode::Rejected),
        other => panic!("expected typed Rejected, got {other:?}"),
    }
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "rejection is prompt, not a hang"
    );
    assert!(counter(&coord, "cluster.no_backend") >= 1);

    // The client connection survives the rejection (Rejected is not
    // connection-fatal) — and the coordinator itself stays alive.
    client
        .ping()
        .expect("coordinator still answers after rejecting");
}

#[test]
fn stalled_subscriber_is_retired_through_the_proxy() {
    let b0 = backend();
    let coord = coordinator(&[&b0]);

    // A flip subscription (big frames once flooded) that never reads.
    let mut sub = Client::connect(coord.addr()).unwrap();
    let ack = sub.subscribe(SUB_FLIPS, 0, None).unwrap();
    assert_eq!(ack.flags & SUB_FLIPS, SUB_FLIPS);

    let state = b0.state();
    let deadline = Instant::now() + Duration::from_secs(30);
    while state.hub.is_empty() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(state.hub.len(), 1, "subscription reached the backend");

    // Flood the hub while hammering the data path through the same
    // coordinator: the stalled chain (backend → pump → stalled client)
    // must be retired — backend NACK/drop or pump write timeout — while
    // requests keep flowing. The coordinator holds one frame of buffer
    // per subscription, so "retired" also means "no unbounded queue".
    let big: Vec<u32> = (0..100_000).collect();
    let mut compute = Client::connect(coord.addr()).unwrap();
    let deadline = Instant::now() + Duration::from_secs(60);
    while !state.hub.is_empty() && Instant::now() < deadline {
        for seq in 0..8 {
            state.hub.publish_flip("flood", seq, 1, 1, &big);
        }
        compute.gen_compute(&gen_req(7)).unwrap();
    }
    assert!(
        state.hub.is_empty(),
        "stalled proxied subscriber was retired"
    );
    assert!(state.hub.dropped() > 0 || state.hub.lagged_total() > 0);
    compute.ping().unwrap();
}

#[test]
fn drain_moves_new_traffic_and_undrain_restores_it() {
    let b0 = backend();
    let b1 = backend();
    let coord = coordinator(&[&b0, &b1]);
    let mut client = Client::connect(coord.addr()).unwrap();
    for seed in 0..30 {
        client.gen_compute(&gen_req(seed)).unwrap();
    }

    assert!(coord.drain("b1"), "known id drains");
    assert!(!coord.drain("nope"), "unknown id is refused");
    let state = coord.state();
    let drained = &state.backends[1];
    let routed_at_drain = drained.routed.load(std::sync::atomic::Ordering::Relaxed);

    // Everything keeps succeeding; the drained backend gets nothing new.
    for seed in 0..30 {
        client.gen_compute(&gen_req(seed)).unwrap();
    }
    assert_eq!(
        drained.routed.load(std::sync::atomic::Ordering::Relaxed),
        routed_at_drain,
        "drained backend receives no new requests"
    );
    assert!(drained.healthy(), "draining is not unhealthiness");
    assert_eq!(counter(&coord, "cluster.drains"), 1);

    // Undrain: the backend resumes its old arcs (same ids → same ring),
    // so its cache is warm for exactly the keys it had before.
    assert!(coord.undrain("b1"));
    let mut hits_on_restored = 0u32;
    for seed in 0..30 {
        let r = client.gen_compute(&gen_req(seed)).unwrap();
        hits_on_restored += u32::from(r.cache_hit);
    }
    assert!(
        drained.routed.load(std::sync::atomic::Ordering::Relaxed) > routed_at_drain,
        "undrained backend resumes taking traffic"
    );
    assert!(hits_on_restored > 0);
}

#[test]
fn stateful_graphs_pin_to_one_backend_through_the_proxy() {
    let b0 = backend();
    let b1 = backend();
    let coord = coordinator(&[&b0, &b1]);
    let mut client = Client::connect(coord.addr()).unwrap();

    let cfg = CdsConfig::policy(Policy::Degree);
    let points: Vec<(f64, f64)> = (0..30)
        .map(|i| (f64::from(i % 6) * 15.0, f64::from(i / 6) * 15.0))
        .collect();
    let energy = vec![100u64; points.len()];
    let opened = client
        .open_graph(
            "pinned",
            &cfg,
            2,
            40.0,
            (0.0, 0.0, 100.0, 100.0),
            &points,
            &energy,
        )
        .expect("open through the proxy");
    assert!(opened.tiles >= 1);

    // Every stateful frame for this name must land on the same backend:
    // exactly one backend holds the graph.
    for tile in 0..opened.tiles.min(2) {
        client.query_tile("pinned", tile).unwrap();
    }
    let open_counts: Vec<usize> = [&b0, &b1].iter().map(|b| b.state().graphs.len()).collect();
    assert_eq!(
        open_counts.iter().sum::<usize>(),
        1,
        "graph lives on exactly one backend, got {open_counts:?}"
    );
    client.close_graph("pinned").unwrap();
    assert_eq!(
        [&b0, &b1]
            .iter()
            .map(|b| b.state().graphs.len())
            .sum::<usize>(),
        0
    );
    assert!(counter(&coord, "cluster.routed_stateful") >= 3);
}
