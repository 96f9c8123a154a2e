//! Graph import/export: DOT (for visual inspection) and edge lists.

use crate::{Graph, NodeId};
use std::fmt::Write as _;

/// Renders the graph in Graphviz DOT format. Vertices in `highlight` (e.g.
/// the gateway set) are drawn filled.
pub fn to_dot(g: &Graph, highlight: Option<&[bool]>) -> String {
    let mut out = String::from("graph G {\n  node [shape=circle];\n");
    for v in 0..g.n() as NodeId {
        let marked = highlight.is_some_and(|h| h[v as usize]);
        if marked {
            let _ = writeln!(out, "  {v} [style=filled, fillcolor=gray80];");
        } else {
            let _ = writeln!(out, "  {v};");
        }
    }
    for (u, v) in g.edges() {
        let _ = writeln!(out, "  {u} -- {v};");
    }
    out.push_str("}\n");
    out
}

/// Serialises the graph as a plain edge list: first line `n m`, then one
/// `u v` pair per line.
pub fn to_edge_list(g: &Graph) -> String {
    let mut out = format!("{} {}\n", g.n(), g.m());
    for (u, v) in g.edges() {
        let _ = writeln!(out, "{u} {v}");
    }
    out
}

/// Parses an edge list produced by [`to_edge_list`]. A pair repeated in
/// either orientation is one edge, and the header's `m` must count the
/// edges after that deduplication.
pub fn from_edge_list(s: &str) -> Result<Graph, String> {
    let mut lines = s.lines().filter(|l| !l.trim().is_empty());
    let header = lines.next().ok_or("empty input")?;
    let mut it = header.split_whitespace();
    let n: usize = it
        .next()
        .ok_or("missing n")?
        .parse()
        .map_err(|e| format!("bad n: {e}"))?;
    let m: usize = it
        .next()
        .ok_or("missing m")?
        .parse()
        .map_err(|e| format!("bad m: {e}"))?;
    let mut edges = Vec::new();
    for line in lines {
        let mut it = line.split_whitespace();
        let u: NodeId = it
            .next()
            .ok_or("missing u")?
            .parse()
            .map_err(|e| format!("bad u: {e}"))?;
        let v: NodeId = it
            .next()
            .ok_or("missing v")?
            .parse()
            .map_err(|e| format!("bad v: {e}"))?;
        if (u as usize) >= n || (v as usize) >= n {
            return Err(format!("edge ({u}, {v}) out of range for n = {n}"));
        }
        if u == v {
            return Err(format!("self-loop at {u}"));
        }
        edges.push((u, v));
    }
    let g = Graph::from_edges(n, &edges);
    if g.m() != m {
        return Err(format!("header claims {m} edges, parsed {}", g.m()));
    }
    Ok(g)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Graph {
        Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)])
    }

    #[test]
    fn edge_list_round_trip() {
        let g = sample();
        let s = to_edge_list(&g);
        let h = from_edge_list(&s).unwrap();
        assert_eq!(g, h);
    }

    #[test]
    fn edge_list_rejects_garbage() {
        assert!(from_edge_list("").is_err());
        assert!(from_edge_list("2 1\n0 5").is_err());
        assert!(from_edge_list("2 1\n0 0").is_err());
        assert!(from_edge_list("3 2\n0 1").is_err()); // wrong edge count
        assert!(from_edge_list("x y").is_err());
    }

    #[test]
    fn edge_list_header_counts_deduplicated_edges() {
        let g = from_edge_list("3 2\n0 1\n1 0\n2 1\n0 1").unwrap();
        assert_eq!(g, Graph::from_edges(3, &[(0, 1), (1, 2)]));
        // Four lines, but only two distinct edges.
        assert!(from_edge_list("3 4\n0 1\n1 0\n2 1\n0 1").is_err());
    }

    #[test]
    fn dot_output_contains_all_edges_and_highlights() {
        let g = sample();
        let dot = to_dot(&g, Some(&[false, true, true, false]));
        assert!(dot.contains("0 -- 1"));
        assert!(dot.contains("2 -- 3"));
        assert!(dot.contains("1 [style=filled"));
        assert!(!dot.contains("0 [style=filled"));
        assert!(dot.starts_with("graph G {"));
        assert!(dot.trim_end().ends_with('}'));
    }

    #[test]
    fn dot_without_highlight() {
        let dot = to_dot(&sample(), None);
        assert!(!dot.contains("filled"));
    }
}
