//! The consistent-hash ring: virtual nodes keyed by backend id.
//!
//! The 128-bit request digest space is treated as a circle. Each backend
//! contributes `vnodes` points, placed by hashing `(ring tag, backend id,
//! vnode index)` — so a backend's points depend only on its *id*, never on
//! membership, list order, or address. The owner of a key is the backend
//! of the first point clockwise from the key. Points and request keys are
//! `Digest128` values, whose finalizer already spreads them uniformly over
//! the circle (`crates/graph/tests/digest_quality.rs` pins its avalanche),
//! so the ring compares them as they are.
//!
//! Two invariants fall out of this construction and are pinned by the
//! tests below:
//!
//! * **Determinism** — any coordinator configured with the same ids
//!   computes the same ring, so several coordinators (or a restarted one)
//!   route identically without coordination.
//! * **Minimal disruption** — removing a backend reassigns *only* the
//!   keys it owned (each orphaned arc merges into its clockwise
//!   successor); every other key keeps its owner, which is why a backend
//!   loss makes its keys cold instead of invalidating the whole cluster's
//!   cache locality.
//!
//! Liveness is deliberately *not* baked into the ring: the point list is
//! built once over the configured membership, and [`HashRing::owner`]
//! skips unavailable backends at lookup time by walking to the next
//! distinct backend clockwise. Failover is therefore just "keep walking",
//! and a recovered backend resumes exactly its old arcs.

use pacds_graph::digest::{Digest128, DigestSink};

/// Domain tag for ring point placement.
const RING_TAG: &[u8] = b"pacds.cluster.ring.v2";

/// Hard cap on cluster membership: the lookup walk tracks visited
/// backends in one `u64` bitmask so routing never allocates.
pub const MAX_BACKENDS: usize = 64;

/// Default virtual nodes per backend. At 256 vnodes the largest/smallest
/// arc-share ratio across a handful of backends stays within ~2× —
/// good enough for cache spreading; lookups stay O(log(members · vnodes)).
pub const DEFAULT_VNODES: u32 = 256;

/// An immutable consistent-hash ring over a fixed membership.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// `(position, backend index)`, sorted by position.
    points: Vec<(u128, u32)>,
    members: u32,
}

impl HashRing {
    /// Builds the ring for `ids` (index order is the backend index used by
    /// [`owner`](HashRing::owner)). Panics on more than [`MAX_BACKENDS`]
    /// members or zero vnodes.
    pub fn build<S: AsRef<str>>(ids: &[S], vnodes: u32) -> Self {
        assert!(ids.len() <= MAX_BACKENDS, "at most {MAX_BACKENDS} backends");
        assert!(vnodes > 0, "vnodes must be positive");
        let mut points = Vec::with_capacity(ids.len() * vnodes as usize);
        for (i, id) in ids.iter().enumerate() {
            for v in 0..vnodes {
                let mut d = Digest128::new();
                d.write(RING_TAG);
                d.write(id.as_ref().as_bytes());
                d.write_u32(v);
                points.push((d.finish(), i as u32));
            }
        }
        // Position collisions (astronomically unlikely) tie-break by
        // backend index, deterministically.
        points.sort_unstable();
        Self {
            points,
            members: ids.len() as u32,
        }
    }

    /// Membership size the ring was built over.
    pub fn members(&self) -> u32 {
        self.members
    }

    /// The first *eligible* backend clockwise from `key`: walks the ring
    /// starting at the key's successor point, visits each distinct backend
    /// once in ring order, and returns the first for which `available`
    /// holds, skipping `exclude` (the backend a failed attempt already
    /// burned). `None` when nothing eligible remains. Allocation-free.
    pub fn owner<F: Fn(u32) -> bool>(
        &self,
        key: u128,
        available: F,
        exclude: Option<u32>,
    ) -> Option<u32> {
        let start = self.points.partition_point(|&(pos, _)| pos < key);
        let mut seen: u64 = 0;
        for off in 0..self.points.len() {
            let (_, b) = self.points[(start + off) % self.points.len()];
            if seen & (1 << b) != 0 {
                continue;
            }
            seen |= 1 << b;
            if Some(b) != exclude && available(b) {
                return Some(b);
            }
            if seen.count_ones() == self.members {
                break;
            }
        }
        None
    }

    /// The unconditional ring owner (everything available, nothing
    /// excluded) — the backend whose cache warms for `key` in a fully
    /// healthy cluster.
    pub fn primary(&self, key: u128) -> Option<u32> {
        self.owner(key, |_| true, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("backend-{i}")).collect()
    }

    /// Deterministic probe keys spread over the u128 space.
    fn keys(count: u64) -> impl Iterator<Item = u128> {
        (0..count).map(|i| {
            let mut d = Digest128::new();
            d.write(b"ring-test-key");
            d.write_u64(i);
            d.finish()
        })
    }

    #[test]
    fn deterministic_across_builds() {
        let a = HashRing::build(&ids(4), DEFAULT_VNODES);
        let b = HashRing::build(&ids(4), DEFAULT_VNODES);
        for k in keys(500) {
            assert_eq!(a.primary(k), b.primary(k));
        }
    }

    #[test]
    fn covers_and_roughly_balances() {
        let ring = HashRing::build(&ids(4), DEFAULT_VNODES);
        let mut counts = [0u32; 4];
        for k in keys(4000) {
            counts[ring.primary(k).unwrap() as usize] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            // Every backend owns a substantial share (mean = 1000).
            assert!(c > 300, "backend {i} owns only {c}/4000 keys");
        }
    }

    #[test]
    fn removing_a_backend_moves_only_its_keys() {
        let ring = HashRing::build(&ids(4), DEFAULT_VNODES);
        let dead = 2u32;
        for k in keys(2000) {
            let before = ring.primary(k).unwrap();
            let after = ring.owner(k, |b| b != dead, None).unwrap();
            if before != dead {
                // Keys owned by survivors never move: that is the whole
                // point of consistent hashing.
                assert_eq!(before, after);
            } else {
                assert_ne!(after, dead);
            }
        }
    }

    #[test]
    fn recovered_backend_resumes_its_arcs() {
        let ring = HashRing::build(&ids(3), DEFAULT_VNODES);
        for k in keys(1000) {
            let healthy = ring.primary(k).unwrap();
            let degraded = ring.owner(k, |b| b != healthy, None);
            // After recovery the original owner is the owner again.
            assert_eq!(ring.primary(k), Some(healthy));
            // And the failover target was a different live backend.
            assert_ne!(degraded, Some(healthy));
        }
    }

    #[test]
    fn exclude_skips_the_burned_backend() {
        let ring = HashRing::build(&ids(3), DEFAULT_VNODES);
        for k in keys(200) {
            let first = ring.primary(k).unwrap();
            let second = ring.owner(k, |_| true, Some(first)).unwrap();
            assert_ne!(first, second);
        }
    }

    #[test]
    fn none_when_nothing_available() {
        let ring = HashRing::build(&ids(3), DEFAULT_VNODES);
        assert_eq!(ring.owner(42, |_| false, None), None);
    }

    #[test]
    fn single_backend_owns_everything() {
        let ring = HashRing::build(&ids(1), DEFAULT_VNODES);
        for k in keys(100) {
            assert_eq!(ring.primary(k), Some(0));
        }
    }
}
