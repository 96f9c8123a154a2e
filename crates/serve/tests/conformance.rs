//! Differential conformance for the serving layer: the full wire round
//! trip (encode → TCP → decode → compute → encode → TCP → decode) must be
//! bit-identical to the oracle — which the rest of the workspace is
//! already pinned against — over the adversarial corpus, both cache-cold
//! and cache-warm.
//!
//! Every instance is requested **twice** on the same live server: the
//! first answer must be computed (cache-cold), the second must come from
//! the cache (cache-warm), and both must carry the same bytes. Mismatches
//! shrink and emit replayable case files via the testkit harness.

use pacds_core::CdsConfig;
use pacds_graph::{Graph, VertexMask};
use pacds_serve::{serve, Client, ServerConfig, ShardMode, ShardPolicy};
use pacds_testkit::harness::{full_config_matrix, ConformanceReport};
use pacds_testkit::{named_families, random_unit_disk_cases};

/// Issues the instance twice against the live server, asserting the
/// cold/warm cache contract, and returns the (shared) mask.
fn served_mask(client: &mut Client, g: &Graph, energy: &[u64], cfg: &CdsConfig) -> VertexMask {
    let edges: Vec<(u32, u32)> = g.edges().collect();
    let n = g.n() as u32;
    let cold = client
        .compute_cds(cfg, n, &edges, Some(energy), 0, 0)
        .expect("served compute (cold)");
    let warm = client
        .compute_cds(cfg, n, &edges, Some(energy), 0, 0)
        .expect("served compute (warm)");
    assert!(
        warm.cache_hit,
        "second identical request must hit the cache"
    );
    assert_eq!(
        cold.mask, warm.mask,
        "cache-warm answer must be bit-identical"
    );
    assert_eq!(
        (cold.marked, cold.after_rule1, cold.gateways, cold.rounds),
        (warm.marked, warm.after_rule1, warm.gateways, warm.rounds),
        "cached stage statistics must match the computed ones"
    );
    cold.mask
}

#[test]
fn served_responses_conform_over_the_corpus() {
    let server = serve(
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            queue: 8,
            cache_bytes: 64 << 20,
            // Route every shardable request through the sharded engine so
            // this wire conformance run also pins the served sharded path
            // against the oracle (unshardable configs fall back).
            shard: ShardPolicy {
                mode: ShardMode::Always,
                shards: 4,
                ..ShardPolicy::default()
            },
            metrics_addr: None,
        },
    )
    .expect("bind conformance server");
    let mut client = Client::connect(server.addr()).expect("connect");

    let matrix = full_config_matrix();
    let mut report = ConformanceReport::new();

    // Named adversarial families × the full 40-configuration matrix.
    for case in named_families() {
        for cfg in &matrix {
            report.check_external(&case, cfg, "serve_wire", |g, e, cfg| {
                served_mask(&mut client, g, e, cfg)
            });
        }
    }
    // Random unit-disk corpus × a spread of the matrix (every 5th config,
    // offset by case index so all 40 appear across the corpus).
    for (i, case) in random_unit_disk_cases(0xC0DE, 25).iter().enumerate() {
        for cfg in matrix.iter().skip(i % 5).step_by(5) {
            report.check_external(case, cfg, "serve_wire", |g, e, cfg| {
                served_mask(&mut client, g, e, cfg)
            });
        }
    }

    assert!(report.checked > 500, "corpus coverage floor");
    report.finish();

    // Sanity on the cache contract across the whole run: exactly one miss
    // and at least one hit per checked instance.
    let stats = server.state().cache.stats();
    assert!(stats.hits >= stats.misses, "every instance re-served warm");
    assert_eq!(
        server
            .state()
            .stats
            .protocol_errors
            .load(std::sync::atomic::Ordering::Relaxed),
        0,
        "conformance run must be protocol-error free"
    );
}
