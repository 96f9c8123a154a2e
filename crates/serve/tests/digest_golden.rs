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
            0x76e1f018f6da781e6e5508dae10ba10e,
        ),
        (
            CdsConfig::sequential(Policy::Degree),
            None,
            0xc390c7efed54af380a2960f512e80144,
        ),
        (
            CdsConfig::policy(Policy::Energy),
            None,
            0x9e2419d60b19690aabf40381be3a34f9,
        ),
        (
            CdsConfig::policy(Policy::Energy),
            Some(&[10, 0, 0, 0, 0, 0, 0, 0, 20, 0, 0, 0, 0, 0, 0, 0]),
            0x796a70b90eff0d4b5be3d41abb002b48,
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
        (0, 0x6f5aee61ac1547bde2da51a2dbc12df7),
        (7, 0xd91eb8408896f8eed9a50b6aee717a58),
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
        0x1ec2efc0e75104f1ceb13c2ae4fea0df,
        "gen digest with energy seed drifted"
    );
}

#[test]
fn graph_name_digests_are_pinned() {
    assert_eq!(graph_name_key("alpha"), 0x62dac691420d9b339aa2260aad05c17b);
    assert_eq!(graph_name_key("beta"), 0x70780418e9b956a38425e6250982a38f);
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
