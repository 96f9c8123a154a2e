//! Batched broadcast flooding with retained duplicate suppression.
//!
//! Semantically identical to [`pacds_routing::flood_cost`] — the source
//! always transmits, a host retransmits the first time it hears the
//! message iff it is a relay — but built for repeated floods at scale:
//! "already heard" is an epoch stamp compared against a per-flood
//! sequence number, so consecutive floods share the same buffers and
//! clear nothing. The conformance suite pins the two implementations to
//! identical `(transmissions, reached, depth)` on the whole testkit
//! corpus.

use pacds_graph::{Graph, NodeId};
use pacds_routing::FloodCost;

/// Retained flood state. One instance serves any number of floods over
/// graphs of the same node count; `run` allocates nothing once the
/// buffers have reached `n`.
#[derive(Debug, Default)]
pub struct FloodEngine {
    /// Flood sequence number at which each host last *received*.
    heard: Vec<u32>,
    /// Flood sequence number at which each host last *transmitted*.
    sent: Vec<u32>,
    /// Current flood sequence number.
    stamp: u32,
    /// Level-synchronous frontier buffers.
    cur: Vec<NodeId>,
    nxt: Vec<NodeId>,
    /// Duplicate receptions suppressed by the last flood.
    last_duplicates: u64,
}

impl FloodEngine {
    /// An empty engine.
    pub fn new() -> Self {
        Self::default()
    }

    /// Duplicate receptions the most recent flood suppressed (receptions
    /// by hosts that had already heard the message).
    pub fn last_duplicates(&self) -> u64 {
        self.last_duplicates
    }

    /// Floods from `source`. `relays` gates retransmission (`None` =
    /// blind flooding); `alive` masks dead hosts out entirely — they
    /// neither receive nor relay (`None` = everyone is up). The source
    /// must be in range and alive.
    pub fn run(
        &mut self,
        g: &Graph,
        source: NodeId,
        relays: Option<&[bool]>,
        alive: Option<&[bool]>,
    ) -> FloodCost {
        let n = g.n();
        assert!((source as usize) < n, "source out of range");
        if let Some(r) = relays {
            assert_eq!(r.len(), n);
        }
        if let Some(a) = alive {
            assert_eq!(a.len(), n);
            assert!(a[source as usize], "flood source must be alive");
        }
        if self.heard.len() != n {
            self.heard.clear();
            self.heard.resize(n, 0);
            self.sent.clear();
            self.sent.resize(n, 0);
            self.stamp = 0;
        }
        // On sequence wrap the stamps are ambiguous; a full clear once
        // every 2^32 floods keeps the steady state allocation- and
        // clear-free.
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.heard.iter_mut().for_each(|s| *s = 0);
            self.sent.iter_mut().for_each(|s| *s = 0);
            self.stamp = 1;
        }
        let stamp = self.stamp;
        let up = |v: NodeId| alive.is_none_or(|a| a[v as usize]);

        let mut transmissions = 0usize;
        let mut reached = 0usize;
        let mut duplicates = 0u64;
        let mut depth = 0u32;
        let mut level = 0u32;
        self.cur.clear();
        self.nxt.clear();
        self.sent[source as usize] = stamp;
        self.cur.push(source);
        while !self.cur.is_empty() {
            level += 1;
            for i in 0..self.cur.len() {
                let v = self.cur[i];
                transmissions += 1;
                for &u in g.neighbors(v) {
                    let ui = u as usize;
                    if u == source || !up(u) {
                        continue;
                    }
                    if self.heard[ui] == stamp {
                        duplicates += 1;
                        continue;
                    }
                    self.heard[ui] = stamp;
                    reached += 1;
                    depth = level;
                    if relays.is_none_or(|r| r[ui]) && self.sent[ui] != stamp {
                        self.sent[ui] = stamp;
                        self.nxt.push(u);
                    }
                }
            }
            std::mem::swap(&mut self.cur, &mut self.nxt);
            self.nxt.clear();
        }
        self.last_duplicates = duplicates;
        FloodCost {
            transmissions,
            reached,
            depth,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pacds_core::{compute_cds, CdsConfig, CdsInput, Policy};
    use pacds_graph::gen;
    use pacds_routing::flood_cost;
    use rand::SeedableRng;

    #[test]
    fn matches_flood_cost_on_small_families() {
        let mut eng = FloodEngine::new();
        for g in [
            gen::path(7),
            gen::cycle(8),
            gen::star(6),
            gen::complete(5),
            gen::grid(4, 5),
        ] {
            for src in 0..g.n() as NodeId {
                assert_eq!(eng.run(&g, src, None, None), flood_cost(&g, src, None));
            }
        }
    }

    #[test]
    fn matches_flood_cost_with_gateway_relays() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let bounds = pacds_geom::Rect::paper_arena();
        let mut eng = FloodEngine::new();
        for _ in 0..10 {
            let pts = pacds_geom::placement::uniform_points(&mut rng, bounds, 60);
            let full = gen::unit_disk(bounds, 25.0, &pts);
            let keep = pacds_graph::algo::largest_component(&full);
            let (g, _) = full.induced(&keep);
            if g.n() < 10 {
                continue;
            }
            let cds = compute_cds(&CdsInput::new(&g), &CdsConfig::policy(Policy::Degree));
            for src in [0, (g.n() / 2) as NodeId] {
                assert_eq!(
                    eng.run(&g, src, Some(&cds), None),
                    flood_cost(&g, src, Some(&cds))
                );
                assert_eq!(eng.run(&g, src, None, None), flood_cost(&g, src, None));
            }
        }
    }

    #[test]
    fn dead_hosts_neither_receive_nor_relay() {
        // Path 0-1-2-3-4 with 2 dead: the flood stops at 1.
        let g = gen::path(5);
        let alive = vec![true, true, false, true, true];
        let mut eng = FloodEngine::new();
        let c = eng.run(&g, 0, None, Some(&alive));
        assert_eq!(c.reached, 1, "only host 1 hears it");
        assert_eq!(c.transmissions, 2, "0 and 1 transmit");
    }

    #[test]
    fn duplicates_are_counted_not_redelivered() {
        // Complete K4 blind flood: every pair edge redelivers.
        let g = gen::complete(4);
        let mut eng = FloodEngine::new();
        let c = eng.run(&g, 0, None, None);
        assert_eq!(c.reached, 3);
        assert_eq!(c.transmissions, 4);
        assert!(eng.last_duplicates() > 0);
        // A second flood reuses the stamps with no clearing.
        let c2 = eng.run(&g, 0, None, None);
        assert_eq!(c, c2);
    }
}
