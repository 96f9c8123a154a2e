//! Robustness analysis of a gateway backbone.
//!
//! Smaller backbones route with less state, but concentrate failure risk:
//! a gateway that is an articulation point of the induced backbone — or
//! the sole dominator of some host — is a single point of failure. This
//! module scores a gateway set on both axes, quantifying the
//! size-vs-resilience trade-off the paper's conclusion alludes to
//! ("trade offs are possible by increasing the size of the connected
//! dominating set...").

use pacds_graph::{algo, Graph, NodeId};
use serde::Serialize;

/// Robustness report for one gateway set.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RobustnessReport {
    /// Number of gateways.
    pub gateways: usize,
    /// Gateways whose removal disconnects the remaining backbone.
    pub backbone_cut_vertices: Vec<NodeId>,
    /// Bridge links of the backbone.
    pub backbone_bridges: usize,
    /// Gateways that are the *only* dominator of some non-gateway host.
    pub sole_dominators: Vec<NodeId>,
    /// Fraction of gateways that are a single point of failure (union of
    /// the two criteria above).
    pub spof_fraction: f64,
}

/// Analyses the backbone induced by `gateways` in `g`.
pub fn backbone_robustness(g: &Graph, gateways: &[bool]) -> RobustnessReport {
    assert_eq!(gateways.len(), g.n());
    let (backbone, old_of) = g.induced(gateways);
    let cuts = algo::articulation_points(&backbone);
    let backbone_cut_vertices: Vec<NodeId> = cuts
        .iter()
        .enumerate()
        .filter(|&(_i, &c)| c)
        .map(|(i, &_c)| old_of[i])
        .collect();
    let backbone_bridges = algo::bridges(&backbone).len();

    // Sole dominators: for each non-gateway host with exactly one gateway
    // neighbour, that gateway is critical for domination.
    let mut sole = std::collections::BTreeSet::new();
    for v in g.vertices() {
        if gateways[v as usize] {
            continue;
        }
        let mut dominators = g
            .neighbors(v)
            .iter()
            .copied()
            .filter(|&u| gateways[u as usize]);
        if let (Some(only), None) = (dominators.next(), dominators.next()) {
            sole.insert(only);
        }
    }
    let sole_dominators: Vec<NodeId> = sole.into_iter().collect();

    let gateway_count = old_of.len();
    let spof: std::collections::BTreeSet<NodeId> = backbone_cut_vertices
        .iter()
        .chain(sole_dominators.iter())
        .copied()
        .collect();
    RobustnessReport {
        gateways: gateway_count,
        backbone_cut_vertices,
        backbone_bridges,
        sole_dominators,
        spof_fraction: if gateway_count == 0 {
            0.0
        } else {
            spof.len() as f64 / gateway_count as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pacds_core::{compute_cds, CdsConfig, CdsInput, Policy};
    use pacds_graph::gen;
    use rand::SeedableRng;

    #[test]
    fn path_backbone_is_maximally_fragile() {
        let g = gen::path(6);
        // Gateways = interior vertices 1..4 (the marking output).
        let gw = pacds_core::marking(&g);
        let r = backbone_robustness(&g, &gw);
        assert_eq!(r.gateways, 4);
        // Interior of the backbone path: 2 and 3 are cut vertices.
        assert_eq!(r.backbone_cut_vertices, vec![2, 3]);
        assert_eq!(r.backbone_bridges, 3);
        // Ends 0 and 5 are dominated only by 1 and 4 respectively.
        assert_eq!(r.sole_dominators, vec![1, 4]);
        assert_eq!(r.spof_fraction, 1.0);
    }

    #[test]
    fn redundant_backbone_has_no_spof() {
        // C6 with all vertices as gateways: a cycle has no cut vertices and
        // no undominated hosts.
        let g = gen::cycle(6);
        let r = backbone_robustness(&g, &[true; 6]);
        assert!(r.backbone_cut_vertices.is_empty());
        assert_eq!(r.backbone_bridges, 0);
        assert!(r.sole_dominators.is_empty());
        assert_eq!(r.spof_fraction, 0.0);
    }

    #[test]
    fn empty_gateway_set() {
        let g = gen::complete(4);
        let r = backbone_robustness(&g, &[false; 4]);
        assert_eq!(r.gateways, 0);
        assert_eq!(r.spof_fraction, 0.0);
    }

    #[test]
    fn pruning_increases_fragility_on_average() {
        // The size-vs-resilience trade-off: the pruned backbone should have
        // at least the SPOF fraction of the raw marking.
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let bounds = pacds_geom::Rect::paper_arena();
        let mut pruned_worse = 0;
        let mut trials = 0;
        for _ in 0..20 {
            let pts = pacds_geom::placement::uniform_points(&mut rng, bounds, 50);
            let full = gen::unit_disk(bounds, 25.0, &pts);
            let keep = algo::largest_component(&full);
            let (g, _) = full.induced(&keep);
            if g.n() < 10 {
                continue;
            }
            trials += 1;
            let nr = compute_cds(&CdsInput::new(&g), &CdsConfig::policy(Policy::NoPruning));
            let nd = compute_cds(&CdsInput::new(&g), &CdsConfig::policy(Policy::Degree));
            let r_nr = backbone_robustness(&g, &nr);
            let r_nd = backbone_robustness(&g, &nd);
            if r_nd.spof_fraction >= r_nr.spof_fraction {
                pruned_worse += 1;
            }
        }
        assert!(
            pruned_worse * 3 >= trials * 2,
            "pruned backbones should usually be more fragile ({pruned_worse}/{trials})"
        );
    }
}
