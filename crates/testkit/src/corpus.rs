//! The adversarial topology corpus.
//!
//! [`named_families`] enumerates hand-built worst-case families — the
//! degenerate shapes where tie-breaking, coverage symmetry, and
//! connectivity edge cases actually bite — and [`random_unit_disk_cases`]
//! adds seeded random unit-disk graphs across the paper's density range
//! (a 100×100 arena, transmission radius 25, 3 ≤ n ≤ 100). Every case
//! carries an energy table chosen to exercise the tie-break chain: some
//! tables are all-equal (pure id tie-breaks), some have adversarial ties
//! on the extremes, some are distinct.

use crate::oracle;
use pacds_geom::{placement, Point2, Rect};
use pacds_graph::{gen, Graph, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One corpus entry: a topology plus the energy table to run it with.
#[derive(Debug, Clone)]
pub struct TopoCase {
    /// The family this case belongs to (e.g. `"bridged-cliques"`).
    pub family: &'static str,
    /// Unique case name within the corpus (e.g. `"bridged-cliques/k5-k5"`).
    pub name: String,
    /// The topology.
    pub graph: Graph,
    /// Energy table (always `graph.n()` long; all-zero where energy is
    /// irrelevant to the family).
    pub energy: Vec<u64>,
    /// Host positions, for cases built geometrically — lets the harness
    /// cross-check the production unit-disk builders against the O(n²)
    /// oracle constructor.
    pub positions: Option<(Rect, f64, Vec<Point2>)>,
    /// Whether the topology is connected (computed independently at
    /// construction; disconnected cases skip CDS-validity assertions but
    /// still participate in bit-identity checks).
    pub connected: bool,
}

impl TopoCase {
    fn new(family: &'static str, name: impl Into<String>, graph: Graph, energy: Vec<u64>) -> Self {
        Self::with_positions(family, name, graph, energy, None)
    }

    fn with_positions(
        family: &'static str,
        name: impl Into<String>,
        graph: Graph,
        energy: Vec<u64>,
        positions: Option<(Rect, f64, Vec<Point2>)>,
    ) -> Self {
        assert_eq!(graph.n(), energy.len());
        let connected = is_connected_union_find(&graph);
        Self {
            family,
            name: name.into(),
            graph,
            energy,
            positions,
            connected,
        }
    }
}

/// Connectivity by union-find, independent of `pacds_graph::algo`.
fn is_connected_union_find(g: &Graph) -> bool {
    let n = g.n();
    if n <= 1 {
        return true;
    }
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut v: usize) -> usize {
        while parent[v] != v {
            parent[v] = parent[parent[v]];
            v = parent[v];
        }
        v
    }
    let mut components = n;
    for (u, v) in g.edges() {
        let (a, b) = (find(&mut parent, u as usize), find(&mut parent, v as usize));
        if a != b {
            parent[a] = b;
            components -= 1;
        }
    }
    components == 1
}

/// Distinct per-host energies (no ties; deterministic).
fn distinct_energy(n: usize) -> Vec<u64> {
    (0..n as u64).map(|v| (v * 13 + 5) % 97).collect()
}

/// All-equal energies: every energy comparison falls through to the
/// degree/id tie-breaks.
fn tied_energy(n: usize) -> Vec<u64> {
    vec![7; n]
}

/// Two cliques of size `k` joined by a single bridge edge between their
/// representatives (vertices `0` and `k`).
fn bridged_cliques(k: usize) -> Graph {
    let mut edges = Vec::new();
    for a in 0..k as NodeId {
        for b in a + 1..k as NodeId {
            edges.push((a, b));
            edges.push((k as NodeId + a, k as NodeId + b));
        }
    }
    edges.push((0, k as NodeId));
    Graph::from_edges(2 * k, &edges)
}

/// Complete bipartite graph `K_{a,b}`.
fn complete_bipartite(a: usize, b: usize) -> Graph {
    let edges: Vec<_> = (0..a as NodeId)
        .flat_map(|u| (0..b as NodeId).map(move |v| (u, a as NodeId + v)))
        .collect();
    Graph::from_edges(a + b, &edges)
}

/// Complete binary tree with `n` vertices (heap indexing).
fn binary_tree(n: usize) -> Graph {
    let edges: Vec<_> = (1..n)
        .map(|v| (v as NodeId, ((v - 1) / 2) as NodeId))
        .collect();
    Graph::from_edges(n, &edges)
}

/// The Petersen graph: 3-regular, girth 5 — every degree comparison ties.
fn petersen() -> Graph {
    let mut edges = Vec::new();
    for v in 0..5u32 {
        edges.push((v, (v + 1) % 5)); // outer cycle
        edges.push((v, v + 5)); // spokes
        edges.push((v + 5, (v + 2) % 5 + 5)); // inner pentagram
    }
    Graph::from_edges(10, &edges)
}

/// Circulant graph `C_n(1, 2)`: 4-regular, fully degree-tied.
fn circulant(n: usize) -> Graph {
    let mut edges = Vec::new();
    for v in 0..n {
        edges.push((v as NodeId, ((v + 1) % n) as NodeId));
        edges.push((v as NodeId, ((v + 2) % n) as NodeId));
    }
    Graph::from_edges(n, &edges)
}

/// A unit-disk case built from explicit positions (kept on the case for
/// builder cross-checks).
fn geometric_case(
    family: &'static str,
    name: &str,
    radius: f64,
    pts: Vec<Point2>,
    energy: Vec<u64>,
) -> TopoCase {
    let bounds = Rect::paper_arena();
    let graph = oracle::unit_disk_oracle(radius, &pts);
    TopoCase::with_positions(family, name, graph, energy, Some((bounds, radius, pts)))
}

/// The named adversarial families. Guaranteed to span at least 12
/// distinct `family` labels (asserted by the conformance tests).
pub fn named_families() -> Vec<TopoCase> {
    let mut cases = Vec::new();

    // Degenerate sizes: the off-by-one graveyard.
    for n in [0usize, 1, 2] {
        cases.push(TopoCase::new(
            "degenerate",
            format!("degenerate/n{n}"),
            gen::path(n),
            tied_energy(n),
        ));
    }

    for n in [3usize, 4, 7, 10] {
        cases.push(TopoCase::new(
            "path",
            format!("path/n{n}"),
            gen::path(n),
            distinct_energy(n),
        ));
    }
    for n in [3usize, 4, 9] {
        cases.push(TopoCase::new(
            "cycle",
            format!("cycle/n{n}"),
            gen::cycle(n),
            distinct_energy(n),
        ));
    }
    for n in [4usize, 9] {
        cases.push(TopoCase::new(
            "star",
            format!("star/n{n}"),
            gen::star(n),
            distinct_energy(n),
        ));
    }
    for n in [3usize, 5, 8] {
        cases.push(TopoCase::new(
            "clique",
            format!("clique/k{n}"),
            gen::complete(n),
            distinct_energy(n),
        ));
    }
    for (a, b) in [(1usize, 4usize), (2, 3), (3, 3), (2, 6)] {
        cases.push(TopoCase::new(
            "bipartite",
            format!("bipartite/k{a}-{b}"),
            complete_bipartite(a, b),
            distinct_energy(a + b),
        ));
    }
    for (r, c) in [(2usize, 4usize), (3, 3), (4, 5)] {
        cases.push(TopoCase::new(
            "grid",
            format!("grid/{r}x{c}"),
            gen::grid(r, c),
            distinct_energy(r * c),
        ));
    }
    for n in [7usize, 15] {
        cases.push(TopoCase::new(
            "tree",
            format!("tree/binary-n{n}"),
            binary_tree(n),
            distinct_energy(n),
        ));
    }
    for k in [3usize, 5] {
        cases.push(TopoCase::new(
            "bridged-cliques",
            format!("bridged-cliques/k{k}-k{k}"),
            bridged_cliques(k),
            distinct_energy(2 * k),
        ));
    }

    // Disconnected topologies: implementations must agree bit-for-bit even
    // where no valid CDS exists.
    {
        // 0-1-2-3 plus a separate triangle 4-5-6
        let g = Graph::from_edges(7, &[(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (4, 6)]);
        cases.push(TopoCase::new(
            "disconnected",
            "disconnected/path+triangle",
            g,
            distinct_energy(7),
        ));
        cases.push(TopoCase::new(
            "disconnected",
            "disconnected/isolates",
            Graph::new(5),
            tied_energy(5),
        ));
        let one_edge = Graph::from_edges(4, &[(1, 3)]);
        cases.push(TopoCase::new(
            "disconnected",
            "disconnected/one-edge",
            one_edge,
            distinct_energy(4),
        ));
    }

    // Co-located hosts: coincident points give identical closed
    // neighbourhoods — the pure tie-break stress for Rule 1.
    {
        let p = |x: f64, y: f64| Point2::new(x, y);
        let pts = vec![
            p(10.0, 10.0),
            p(10.0, 10.0),
            p(10.0, 10.0),
            p(30.0, 10.0),
            p(50.0, 10.0),
        ];
        cases.push(geometric_case(
            "co-located",
            "co-located/triple-stack",
            25.0,
            pts,
            tied_energy(5),
        ));
        let pts = vec![
            p(0.0, 0.0),
            p(0.0, 0.0),
            p(20.0, 0.0),
            p(20.0, 0.0),
            p(40.0, 0.0),
            p(40.0, 0.0),
        ];
        cases.push(geometric_case(
            "co-located",
            "co-located/paired-chain",
            25.0,
            pts,
            distinct_energy(6),
        ));
    }

    // Tied degrees: regular graphs where the degree key never decides.
    cases.push(TopoCase::new(
        "tied-degree",
        "tied-degree/petersen",
        petersen(),
        tied_energy(10),
    ));
    cases.push(TopoCase::new(
        "tied-degree",
        "tied-degree/circulant-c9-12",
        circulant(9),
        tied_energy(9),
    ));

    // Tied energies on prunable shapes: every energy comparison falls to
    // degree/id, and adversarial extremes put the tie on the pruning
    // boundary.
    cases.push(TopoCase::new(
        "tied-energy",
        "tied-energy/grid-3x3-flat",
        gen::grid(3, 3),
        tied_energy(9),
    ));
    {
        let g = bridged_cliques(4);
        let mut e = tied_energy(8);
        e[0] = 0; // both bridge endpoints at the minimum level
        e[4] = 0;
        cases.push(TopoCase::new(
            "tied-energy",
            "tied-energy/bridge-extremes",
            g,
            e,
        ));
        let g = gen::star(6);
        let mut e = tied_energy(6);
        e[0] = 0; // hub at minimum energy but structurally indispensable
        cases.push(TopoCase::new(
            "tied-energy",
            "tied-energy/starved-hub",
            g,
            e,
        ));
    }

    // Wheel: hub covers everything, rim is a cycle — Rule 1 and Rule 2
    // both fire and disagree about who survives.
    for n in [6usize, 9] {
        let mut edges: Vec<_> = gen::cycle(n - 1).edges().collect();
        edges.extend((0..(n - 1) as NodeId).map(|v| (n as NodeId - 1, v)));
        let g = Graph::from_edges(n, &edges);
        cases.push(TopoCase::new(
            "wheel",
            format!("wheel/n{n}"),
            g,
            distinct_energy(n),
        ));
    }

    cases
}

/// `count` seeded random unit-disk cases across the paper's density range
/// (n from 3 to 100 in a 100×100 arena at radius 25). Deterministic per
/// `seed`; energies are drawn from a small range so ties are common.
pub fn random_unit_disk_cases(seed: u64, count: usize) -> Vec<TopoCase> {
    let bounds = Rect::paper_arena();
    let radius = 25.0;
    let sizes = [3usize, 5, 8, 10, 15, 20, 30, 40, 50, 60, 75, 90, 100];
    let mut cases = Vec::with_capacity(count);
    for i in 0..count {
        let mut rng =
            StdRng::seed_from_u64(seed.wrapping_add(i as u64).wrapping_mul(0x9E3779B97F4A7C15));
        let n = sizes[i % sizes.len()];
        // Mix uniform (often disconnected at low n) with jittered-grid and
        // anchored-connected placements so both regimes are represented.
        let pts = match i % 3 {
            0 => placement::uniform_points(&mut rng, bounds, n),
            1 => placement::jittered_grid(&mut rng, bounds, n),
            _ => placement::connected_uniform_points(&mut rng, bounds, radius, n),
        };
        let energy: Vec<u64> = (0..n).map(|_| rng.random_range(0..8u64)).collect();
        let graph = gen::unit_disk(bounds, radius, &pts);
        cases.push(TopoCase::with_positions(
            "random-udg",
            format!("random-udg/{i}-n{n}"),
            graph,
            energy,
            Some((bounds, radius, pts)),
        ));
    }
    cases
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn corpus_has_at_least_twelve_families() {
        let families: HashSet<&str> = named_families().iter().map(|c| c.family).collect();
        assert!(
            families.len() >= 12,
            "only {} families: {families:?}",
            families.len()
        );
    }

    #[test]
    fn case_names_are_unique() {
        let cases = named_families();
        let names: HashSet<&str> = cases.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names.len(), cases.len());
    }

    #[test]
    fn connectivity_labels_are_consistent() {
        for c in named_families() {
            assert_eq!(
                c.connected,
                pacds_graph::algo::is_connected(&c.graph),
                "{}",
                c.name
            );
        }
    }

    #[test]
    fn random_cases_are_deterministic_per_seed() {
        let a = random_unit_disk_cases(42, 20);
        let b = random_unit_disk_cases(42, 20);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.graph, y.graph, "{}", x.name);
            assert_eq!(x.energy, y.energy);
        }
    }
}
