//! Statistical and structural quality of the word-wide 128-bit digest.
//!
//! `Digest128` keys the serving cache and places keys on the cluster's
//! hash ring, so a weak digest shows up as wrong cache hits (collisions)
//! or skewed rings (poor mixing) long before any golden value moves.
//! These tests pin the properties the construction documents:
//!
//! * **Avalanche** — flipping any one input bit flips each of the 128
//!   output bits with probability ~1/2 (the finalizer's job).
//! * **No collisions** among the cache keys of the closest neighbours of
//!   real topologies: every single-edge deletion, single-edge addition and
//!   single-energy change, under every configuration encoding.
//! * **Stream invariance** — the digest is a function of the byte stream
//!   alone, whatever mix of `write`, `write_u32` and `write_u64` delivered
//!   it, at every alignment.
//! * **Two full lanes** — a stream pair built to collide in one lane does
//!   not collide in the digest.

use pacds_geom::{placement, Rect};
use pacds_graph::digest::{canonicalize_edges, fold_edges, Digest128, DigestSink};
use pacds_graph::{gen, Graph, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::HashSet;

fn digest(bytes: &[u8]) -> u128 {
    let mut d = Digest128::new();
    d.write(bytes);
    d.finish()
}

/// A sink that records the byte stream it is fed.
#[derive(Default)]
struct Recorder(Vec<u8>);

impl DigestSink for Recorder {
    fn write(&mut self, bytes: &[u8]) {
        self.0.extend_from_slice(bytes);
    }
}

/// The canonical `fold_edges` byte stream of `g`.
fn graph_stream(g: &Graph) -> Vec<u8> {
    let edges: Vec<(NodeId, NodeId)> = g.edges().collect();
    let mut r = Recorder::default();
    fold_edges(&mut r, g.n(), &edges);
    r.0
}

/// Encodings of 1 to 2000 words: all-zero words (the sparsest input),
/// pseudo-random words, and canonical graph streams (ascending edge words,
/// the input the cache actually sees), the longest ~2000 words.
fn avalanche_corpus() -> Vec<Vec<u8>> {
    let mut rng = StdRng::seed_from_u64(0xa5a5);
    let mut corpus = Vec::new();
    for words in [1usize, 2, 3, 7, 16] {
        corpus.push(vec![0u8; 8 * words]);
    }
    for words in [1usize, 2, 5, 8, 64, 300] {
        corpus.push((0..8 * words).map(|_| rng.next_u64() as u8).collect());
    }
    corpus.push(graph_stream(&gen::path(4)));
    corpus.push(graph_stream(&gen::grid(6, 6)));
    let pts = placement::uniform_points(&mut rng, Rect::square(100.0), 200);
    let udg = gen::unit_disk(Rect::square(100.0), 19.0, &pts);
    corpus.push(graph_stream(&udg));
    corpus
}

#[test]
fn every_input_bit_flips_half_the_output_bits() {
    let corpus = avalanche_corpus();
    let longest = corpus.iter().map(Vec::len).max().unwrap();
    assert!((1800 * 8..=2000 * 8).contains(&longest), "{longest} bytes");

    let mut per_bit = [0u64; 128];
    let (mut flips, mut changed) = (0u64, 0u64);
    for enc in &corpus {
        let base = digest(enc);
        let (mut enc_flips, mut enc_changed) = (0u64, 0u64);
        // `prefix` has folded enc[..i]; each flip continues from it.
        let mut prefix = Digest128::new();
        for (i, &byte) in enc.iter().enumerate() {
            for bit in 0..8 {
                let mut d = prefix;
                d.write(&[byte ^ (1 << bit)]);
                d.write(&enc[i + 1..]);
                let diff = d.finish() ^ base;
                for (o, count) in per_bit.iter_mut().enumerate() {
                    *count += (diff >> o & 1) as u64;
                }
                enc_flips += 1;
                enc_changed += u64::from(diff.count_ones());
            }
            prefix.write(&[byte]);
        }
        let mean = enc_changed as f64 / enc_flips as f64;
        assert!(
            (62.0..=66.0).contains(&mean),
            "{}-byte encoding: {mean:.2} output bits change per flipped input bit",
            enc.len()
        );
        flips += enc_flips;
        changed += enc_changed;
    }
    let mean = changed as f64 / flips as f64;
    assert!(
        (62.0..=66.0).contains(&mean),
        "{mean:.3} output bits change per flip"
    );
    for (o, &count) in per_bit.iter().enumerate() {
        let p = count as f64 / flips as f64;
        assert!(
            (0.45..=0.55).contains(&p),
            "output bit {o} flips with probability {p:.4} over {flips} input flips"
        );
    }
}

/// The `ComputeCds` key layout (`pacds_serve::keys::compute_key`): tag,
/// 4-byte config encoding, energy marker and raw block, canonical graph.
fn request_key(cfg: [u8; 4], energy: Option<&[u64]>, n: usize, edges: &[(NodeId, NodeId)]) -> u128 {
    let mut d = Digest128::new();
    d.write(b"pacds.serve.compute.v2");
    d.write(&cfg);
    match energy {
        None => d.write(&[0]),
        Some(e) => {
            d.write(&[1]);
            for &x in e {
                d.write_u64(x);
            }
        }
    }
    fold_edges(&mut d, n, edges);
    d.finish()
}

/// Every valid config encoding: policy × schedule × Rule 2 semantics ×
/// application (the 40 configurations the wire can carry).
fn every_config() -> Vec<[u8; 4]> {
    let mut out = Vec::new();
    for policy in 0..5u8 {
        for schedule in 0..2u8 {
            for rule2 in 0..2u8 {
                for application in 0..2u8 {
                    out.push([policy, schedule, rule2, application]);
                }
            }
        }
    }
    out
}

#[test]
fn nearest_neighbour_requests_never_collide() {
    let mut rng = StdRng::seed_from_u64(7);
    let pts = placement::uniform_points(&mut rng, Rect::square(100.0), 60);
    // Distinct vertex counts keep every (graph, variant) input distinct.
    let corpus = [
        gen::path(9),
        gen::cycle(12),
        gen::grid(4, 5),
        gen::gnp(&mut rng, 40, 0.15),
        gen::unit_disk(Rect::square(100.0), 30.0, &pts),
    ];
    let configs = every_config();
    let mut seen = HashSet::new();
    let mut keys = 0usize;
    let mut insert = |key: u128, what: &dyn Fn() -> String| {
        keys += 1;
        assert!(seen.insert(key), "key {key:#034x} collides at {}", what());
    };
    for g in &corpus {
        let n = g.n();
        let edges: Vec<(NodeId, NodeId)> = g.edges().collect();
        let energy: Vec<u64> = (0..n as u64).map(|v| 1000 + 37 * v).collect();
        // (edges, energy) of the graph and of each nearest neighbour.
        let mut variants = vec![(edges.clone(), energy.clone())];
        for skip in 0..edges.len() {
            let mut e = edges.clone();
            e.remove(skip);
            variants.push((e, energy.clone()));
        }
        for u in 0..n as NodeId {
            for v in u + 1..n as NodeId {
                if !g.has_edge(u, v) {
                    let mut e = edges.clone();
                    e.push((u, v));
                    canonicalize_edges(&mut e);
                    variants.push((e, energy.clone()));
                }
            }
        }
        for v in 0..n {
            let mut en = energy.clone();
            en[v] += 1;
            variants.push((edges.clone(), en));
        }
        for (c, cfg) in configs.iter().enumerate() {
            insert(request_key(*cfg, None, n, &edges), &|| {
                format!("n={n} cfg {c}, no energy")
            });
            for (i, (e, en)) in variants.iter().enumerate() {
                insert(request_key(*cfg, Some(en), n, e), &|| {
                    format!("n={n} cfg {c} variant {i}")
                });
            }
        }
    }
    assert!(keys > 100_000, "only {keys} keys");
}

#[test]
fn any_split_of_a_stream_digests_the_same() {
    let mut rng = StdRng::seed_from_u64(11);
    for len in [0usize, 1, 3, 4, 7, 8, 9, 15, 16, 17, 63, 200] {
        let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        let whole = digest(&bytes);
        // Byte by byte.
        let mut d = Digest128::new();
        for b in &bytes {
            d.write(std::slice::from_ref(b));
        }
        assert_eq!(d.finish(), whole, "len {len}: byte-wise");
        // Random mixes of the three calls, from every starting alignment.
        for trial in 0..40 {
            let mut d = Digest128::new();
            let mut i = (trial % 8).min(len);
            d.write(&bytes[..i]);
            while i < len {
                let left = len - i;
                match rng.random_range(0..3) {
                    0 if left >= 8 => {
                        d.write_u64(u64::from_le_bytes(bytes[i..i + 8].try_into().unwrap()));
                        i += 8;
                    }
                    1 if left >= 4 => {
                        d.write_u32(u32::from_le_bytes(bytes[i..i + 4].try_into().unwrap()));
                        i += 4;
                    }
                    _ => {
                        let k = rng.random_range(1..=left.min(19));
                        d.write(&bytes[i..i + k]);
                        i += k;
                    }
                }
            }
            assert_eq!(d.finish(), whole, "len {len}, trial {trial}");
        }
    }
}

#[test]
fn finish_does_not_end_the_stream() {
    let mut d = Digest128::new();
    d.write(b"pacds");
    let early = d.finish();
    assert_eq!(early, digest(b"pacds"));
    d.write_u64(42);
    let mut whole = b"pacds".to_vec();
    whole.extend_from_slice(&42u64.to_le_bytes());
    assert_eq!(d.finish(), digest(&whole));
}

#[test]
fn trailing_zero_bytes_change_the_digest() {
    // A zero-extended tail is folded with the stream length, so streams
    // that differ only by trailing zeros stay apart.
    let keys: HashSet<u128> = (0..=64).map(|k| digest(&vec![0u8; k])).collect();
    assert_eq!(keys.len(), 65);
}

/// The documented lane step, `rotl((x ^ w) * mul, rot)`.
fn lane(x: u64, w: u64, mul: u64, rot: u32) -> u64 {
    (x ^ w).wrapping_mul(mul).rotate_left(rot)
}

#[test]
fn a_collision_in_one_lane_is_not_a_digest_collision() {
    // Each lane alone is a 64-bit multiply chain, and two words are
    // enough to make it collide on purpose: after words w1 and w1', the
    // second words cancel the state difference. The digest keeps 128 bits
    // of state only if the other lane still separates the pair.
    const SEEDS: [u64; 2] = [0x243f_6a88_85a3_08d3, 0x1319_8a2e_0370_7344];
    const MULS: [u64; 2] = [0x9e37_79b9_7f4a_7c15, 0xc2b2_ae3d_27d4_eb4f];
    const ROTS: [u32; 2] = [31, 27];
    let mut rng = StdRng::seed_from_u64(3);
    for l in 0..2 {
        for _ in 0..64 {
            let (w1, w1b, w2) = (rng.next_u64(), rng.next_u64(), rng.next_u64());
            let s = lane(SEEDS[l], w1, MULS[l], ROTS[l]);
            let sb = lane(SEEDS[l], w1b, MULS[l], ROTS[l]);
            let w2b = w2 ^ s ^ sb;
            assert_eq!(
                lane(s, w2, MULS[l], ROTS[l]),
                lane(sb, w2b, MULS[l], ROTS[l])
            );
            let mut d = Digest128::new();
            d.write_u64(w1);
            d.write_u64(w2);
            let mut e = Digest128::new();
            e.write_u64(w1b);
            e.write_u64(w2b);
            assert_ne!(d.finish(), e.finish(), "lane {l} collision survived");
        }
    }
}
