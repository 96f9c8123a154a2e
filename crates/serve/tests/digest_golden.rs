//! Golden vectors for the canonical 128-bit request digests.
//!
//! The digests in `pacds_serve::keys` are a **compatibility surface**,
//! not an implementation detail: they are the serve cache keys *and* the
//! cluster coordinator's routing keys. If a refactor silently changes
//! them, every deployed cache goes cold at once and — far worse — a
//! mixed-version cluster (old coordinator, new backends, or vice versa)
//! routes to one backend while caching under another. These tests pin
//! the exact values for a small fixed corpus so any change to the digest
//! is a deliberate, reviewed, tagged event (bump the domain-tag version
//! when you mean it).
//!
//! The values below are the `.v2` keys: the domain tags moved from `.v1`
//! when the digest changed from byte-serial FNV-1a-128 to the word-wide
//! `pacds_graph::digest::Digest128` over the same canonical byte stream.
//! The digest's statistical quality is pinned separately, in
//! `crates/graph/tests/digest_quality.rs`.
//!
//! The corpus covers each input axis separately: config (policy, rule
//! variants), energy presence and content, topology (order matters not —
//! edges are canonicalised first), and the gen path's full parameter
//! tuple. A final set of inequality checks guards the *separating* power
//! of the digest — the axes that must never collide.

use pacds_core::{CdsConfig, Policy};
use pacds_serve::keys::{compute_key, gen_key, graph_name_key};
use pacds_serve::protocol::GenComputeRequest;

/// The fixed topology: a 6-vertex graph, listed deliberately unsorted —
/// `compute_key` takes *canonicalised* edges, so the caller sorts first
/// (as both the server handler and the cluster coordinator do).
fn canonical_edges() -> Vec<(u32, u32)> {
    let mut edges = vec![(4u32, 5u32), (0, 1), (2, 3), (1, 2), (3, 4), (1, 3)];
    pacds_graph::canonicalize_edges(&mut edges);
    edges
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

#[test]
fn compute_digests_are_pinned() {
    let edges = canonical_edges();
    let cases: [(CdsConfig, Option<&[u8]>, u128); 4] = [
        (
            CdsConfig::policy(Policy::Degree),
            None,
            0x105dfdf44b2d5e7a2ce49a2d2e11adc6,
        ),
        (
            CdsConfig::sequential(Policy::Degree),
            None,
            0x7c28d99a2b1207bce6838c1da38f9076,
        ),
        (
            CdsConfig::policy(Policy::Energy),
            None,
            0xf3e5605efa1591ea584ef9a5b5d63973,
        ),
        (
            CdsConfig::policy(Policy::Energy),
            Some(&[10, 0, 0, 0, 0, 0, 0, 0, 20, 0, 0, 0, 0, 0, 0, 0]),
            0xec4103d79cd881f89792a51e42979bb7,
        ),
    ];
    for (i, (cfg, energy, want)) in cases.iter().enumerate() {
        let got = compute_key(cfg, *energy, 6, &edges);
        assert_eq!(
            got, *want,
            "compute digest case {i} drifted: got {got:#034x}, pinned {want:#034x} — \
             changing the canonical digest invalidates every cache and splits \
             mixed-version clusters; if intentional, bump the key domain tag \
             version and re-pin"
        );
    }
}

#[test]
fn gen_digests_are_pinned() {
    let cases: [(u64, u128); 2] = [
        (0, 0x91ef935c20ab937e78b155dbf416796d),
        (7, 0x4c0ac034da75df387efd90139a1d454c),
    ];
    for (seed, want) in cases {
        let got = gen_key(&gen_req(seed));
        assert_eq!(
            got, want,
            "gen digest for seed {seed} drifted: got {got:#034x}"
        );
    }
    // The energy-seed marker separates None from Some.
    let mut with_energy = gen_req(0);
    with_energy.energy_seed = Some(3);
    assert_eq!(
        gen_key(&with_energy),
        0x79b423da9f58e29e2be3ed9fd2484d17,
        "gen digest with energy seed drifted"
    );
}

#[test]
fn graph_name_digests_are_pinned() {
    assert_eq!(graph_name_key("alpha"), 0x2f27ae0c890e49dac011288a78d8687e);
    assert_eq!(graph_name_key("beta"), 0x0a4be10bbe6a3f0031295c05ede6648a);
}

#[test]
fn digests_separate_every_input_axis() {
    let edges = canonical_edges();
    let cfg = CdsConfig::policy(Policy::Degree);
    let base = compute_key(&cfg, None, 6, &edges);

    // Config axis.
    assert_ne!(
        base,
        compute_key(&CdsConfig::sequential(Policy::Degree), None, 6, &edges)
    );
    assert_ne!(
        base,
        compute_key(&CdsConfig::policy(Policy::Id), None, 6, &edges)
    );
    // Vertex-count axis (same edges, extra isolated vertex).
    assert_ne!(base, compute_key(&cfg, None, 7, &edges));
    // Energy axis: absence, presence, and content are all distinct.
    let e1 = compute_key(&cfg, Some(&[1, 2, 3]), 6, &edges);
    let e2 = compute_key(&cfg, Some(&[1, 2, 4]), 6, &edges);
    assert_ne!(base, e1);
    assert_ne!(e1, e2);
    // Topology axis.
    let mut other = canonical_edges();
    other.pop();
    assert_ne!(base, compute_key(&cfg, None, 6, &other));
    // Domain separation: a gen request never collides with a compute, a
    // graph name never collides with either (different tags).
    assert_ne!(base, gen_key(&gen_req(0)));
    assert_ne!(base, graph_name_key("alpha"));
}

#[test]
fn edge_order_is_canonicalised_away() {
    let cfg = CdsConfig::policy(Policy::Degree);
    let a = canonical_edges();
    // The same topology arriving in reversed order and with endpoints
    // swapped must digest identically after canonicalisation.
    let mut b: Vec<(u32, u32)> = a.iter().rev().map(|&(u, v)| (v, u)).collect();
    pacds_graph::canonicalize_edges(&mut b);
    assert_eq!(
        compute_key(&cfg, None, 6, &a),
        compute_key(&cfg, None, 6, &b)
    );
}
