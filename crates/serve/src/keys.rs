//! Canonical 128-bit request digests — the cache keys, and the cluster
//! coordinator's routing keys.
//!
//! The server caches results under a 128-bit digest
//! ([`Digest128`], eight bytes per step) of the *canonical* request
//! content (domain tag + config + energy + sorted deduplicated edge list),
//! so permuted wire orders share one cache entry. A warm hit pays this
//! digest over the whole request (~14 KB at n = 200), so its speed is the
//! speed of the cache.
//! `pacds-cluster` routes by the **same** digest: the backend that owns a
//! key on the hash ring is the backend whose LRU warms up for it, so the
//! coordinator's ring and the backends' caches agree by construction.
//!
//! These digests are a compatibility surface: changing any byte folded
//! here silently reshuffles the whole cluster keyspace (every key goes
//! cold at once). `crates/serve/tests/digest_golden.rs` pins exact values
//! for a fixed corpus — a failure there means a protocol-version bump and
//! a deliberate full-cluster cache flush, not a routine refactor. The
//! `.v2` tags mark the move from byte-serial FNV-1a-128 to [`Digest128`]:
//! coordinators and backends must run the same version.

use pacds_core::CdsConfig;
use pacds_graph::digest::{fold_edges, Digest128, DigestSink};

use crate::protocol::{self, GenComputeRequest};

/// Domain tags separating the key spaces (and all of them from raw
/// `pacds_graph::digest::graph_digest` values).
pub const KEY_TAG_COMPUTE: &[u8] = b"pacds.serve.compute.v2";
pub const KEY_TAG_GEN: &[u8] = b"pacds.serve.gen.v2";
pub const KEY_TAG_GRAPH_NAME: &[u8] = b"pacds.serve.graphname.v2";

/// Folds the 4-byte config encoding into a digest (the exact
/// [`protocol::config_bytes`] the wire carries — no allocation).
pub fn put_config_key<D: DigestSink>(d: &mut D, cfg: &CdsConfig) {
    d.write(&protocol::config_bytes(cfg));
}

/// Cache/routing key for a `ComputeCds` request.
///
/// `edges` must already be canonical (`pacds_graph::canonicalize_edges`:
/// `u < v`, sorted, deduplicated) and `energy_raw` is the raw `n × 8`-byte
/// little-endian energy block from the wire, if present — exactly what the
/// server folds, so coordinator and backend derive identical keys.
pub fn compute_key(
    cfg: &CdsConfig,
    energy_raw: Option<&[u8]>,
    n: u32,
    edges: &[(u32, u32)],
) -> u128 {
    let mut d = Digest128::new();
    d.write(KEY_TAG_COMPUTE);
    put_config_key(&mut d, cfg);
    match energy_raw {
        None => d.write(&[0]),
        Some(raw) => {
            d.write(&[1]);
            d.write(raw);
        }
    }
    fold_edges(&mut d, n as usize, edges);
    d.finish()
}

/// Cache/routing key for a `GenCompute` request (placement parameters and
/// seeds fully determine the generated topology, so they *are* the key).
pub fn gen_key(req: &GenComputeRequest) -> u128 {
    let mut d = Digest128::new();
    d.write(KEY_TAG_GEN);
    put_config_key(&mut d, &req.cfg);
    d.write_u32(req.n);
    d.write_u64(req.seed);
    d.write_u64(req.radius.to_bits());
    d.write_u64(req.side.to_bits());
    d.write(&[req.connected as u8]);
    match req.energy_seed {
        None => d.write(&[0]),
        Some(s) => {
            d.write(&[1]);
            d.write_u64(s);
        }
    }
    d.finish()
}

/// Routing key for stateful frames: the digest of the graph *name*.
///
/// OpenGraph/Mutate/QueryTile/CloseGraph/Subscribe all pin to the backend
/// owning this key, so a named graph and its subscriptions live on exactly
/// one backend for the graph's whole lifetime.
pub fn graph_name_key(name: &str) -> u128 {
    let mut d = Digest128::new();
    d.write(KEY_TAG_GRAPH_NAME);
    d.write(name.as_bytes());
    d.finish()
}
