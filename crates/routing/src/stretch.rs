//! Path-stretch analysis of dominating-set-based routing.
//!
//! Property 3 guarantees that the *marking* output preserves shortest
//! paths exactly; after pruning, a route through the gateway overlay may be
//! longer than the true shortest path. These helpers quantify that cost.

use crate::tables::BackboneRoutes;
use pacds_graph::{algo, Graph, NodeId};
use serde::Serialize;

/// Stretch of one pair under the installed `routes`: routed hops minus
/// shortest hops (`None` when either path does not exist).
pub fn stretch(g: &Graph, routes: &mut BackboneRoutes, src: NodeId, dst: NodeId) -> Option<u32> {
    let mut routed = Vec::new();
    routes.assemble(g, src, dst, &mut routed).ok()?;
    let shortest = algo::shortest_path(g, src, dst).ok()?;
    Some((routed.len() - shortest.len()) as u32)
}

/// Aggregate stretch over all ordered reachable pairs.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StretchSummary {
    /// Pairs successfully routed.
    pub pairs: usize,
    /// Pairs where routing failed although a path exists in `g`.
    pub failures: usize,
    /// Mean additive stretch (extra hops) over routed pairs.
    pub mean_extra_hops: f64,
    /// Maximum additive stretch observed.
    pub max_extra_hops: u32,
    /// Fraction of routed pairs with zero extra hops.
    pub optimal_fraction: f64,
}

/// Computes the [`StretchSummary`] of the installed `routes` over every
/// ordered pair of distinct vertices connected in `g`.
pub fn stretch_summary(g: &Graph, routes: &mut BackboneRoutes) -> StretchSummary {
    let mut path = Vec::new();
    let mut pairs = 0usize;
    let mut failures = 0usize;
    let mut total_extra = 0u64;
    let mut max_extra = 0u32;
    let mut optimal = 0usize;
    for s in g.vertices() {
        let dist = algo::bfs_distances(g, s);
        for t in g.vertices() {
            if s == t || dist[t as usize] == u32::MAX {
                continue;
            }
            match routes.assemble(g, s, t, &mut path) {
                Ok(()) => {
                    let extra = (path.len() as u32 - 1) - dist[t as usize];
                    pairs += 1;
                    total_extra += u64::from(extra);
                    max_extra = max_extra.max(extra);
                    if extra == 0 {
                        optimal += 1;
                    }
                }
                Err(_) => failures += 1,
            }
        }
    }
    StretchSummary {
        pairs,
        failures,
        mean_extra_hops: if pairs == 0 {
            0.0
        } else {
            total_extra as f64 / pairs as f64
        },
        max_extra_hops: max_extra,
        optimal_fraction: if pairs == 0 {
            0.0
        } else {
            optimal as f64 / pairs as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pacds_core::{compute_cds, marking, CdsConfig, CdsInput, Policy};
    use pacds_graph::gen;
    use rand::SeedableRng;

    fn installed(gateway: &[bool]) -> BackboneRoutes {
        let mut routes = BackboneRoutes::new();
        routes.install(gateway, &vec![true; gateway.len()]);
        routes
    }

    #[test]
    fn marking_output_has_low_stretch_on_paths() {
        let g = gen::path(8);
        let m = marking(&g);
        let s = stretch_summary(&g, &mut installed(&m));
        assert_eq!(s.failures, 0);
        assert_eq!(
            s.max_extra_hops, 0,
            "path marking keeps all interior vertices"
        );
        assert_eq!(s.optimal_fraction, 1.0);
    }

    #[test]
    fn stretch_counts_detours() {
        // Cycle C6 with gateways forced to one arc: pairs across the gap
        // must detour the long way round.
        let g = gen::cycle(6);
        let mut routes = installed(&[true, true, true, true, false, false]);
        let s = stretch_summary(&g, &mut routes);
        assert_eq!(s.failures, 0);
        assert!(s.max_extra_hops >= 2, "detour must cost extra hops: {s:?}");
        assert!(s.mean_extra_hops > 0.0);
        assert!(s.optimal_fraction < 1.0);
    }

    #[test]
    fn single_pair_stretch() {
        let g = gen::cycle(6);
        let mut routes = installed(&[true, true, true, true, false, false]);
        // 4 -> 5 is a direct edge: stretch 0.
        assert_eq!(stretch(&g, &mut routes, 4, 5), Some(0));
        // 3 -> 5: shortest 3-4-5 (2 hops); routed 3-2-1-0-5 (4 hops): +2.
        assert_eq!(stretch(&g, &mut routes, 3, 5), Some(2));
    }

    #[test]
    fn pruned_cds_keeps_stretch_bounded_on_random_graphs() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for _ in 0..10 {
            let g = gen::connected_gnp(&mut rng, 30, 0.15, 8);
            if g.is_complete() {
                continue;
            }
            let cds = compute_cds(&CdsInput::new(&g), &CdsConfig::policy(Policy::Id));
            let s = stretch_summary(&g, &mut installed(&cds));
            assert_eq!(s.failures, 0, "CDS routing must reach every pair");
            // Entering and leaving the overlay costs at most 2 extra hops
            // beyond the overlay's own detour; sanity-bound the mean.
            assert!(s.mean_extra_hops <= 4.0, "{s:?}");
        }
    }
}
