//! Shortest paths, optionally restricted to a vertex subset.
//!
//! Dominating-set-based routing confines intermediate hops to gateway
//! vertices; [`restricted_shortest_path`] models exactly that: endpoints may
//! be any vertices, but every *intermediate* vertex must satisfy the mask.

use crate::{Graph, NodeId};
use std::collections::VecDeque;

/// Errors from path queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathError {
    /// No path exists under the given restriction.
    Unreachable,
    /// An endpoint is out of range.
    OutOfRange,
}

impl std::fmt::Display for PathError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PathError::Unreachable => write!(f, "no path exists"),
            PathError::OutOfRange => write!(f, "endpoint out of range"),
        }
    }
}

impl std::error::Error for PathError {}

/// Shortest (fewest hops) path from `src` to `dst`, inclusive of endpoints.
pub fn shortest_path(g: &Graph, src: NodeId, dst: NodeId) -> Result<Vec<NodeId>, PathError> {
    restricted_shortest_path(g, src, dst, |_| true)
}

/// Shortest path where every intermediate vertex `v` must satisfy
/// `allowed(v)`. Endpoints are exempt from the restriction.
pub fn restricted_shortest_path<F: Fn(NodeId) -> bool>(
    g: &Graph,
    src: NodeId,
    dst: NodeId,
    allowed: F,
) -> Result<Vec<NodeId>, PathError> {
    let n = g.n();
    if (src as usize) >= n || (dst as usize) >= n {
        return Err(PathError::OutOfRange);
    }
    if src == dst {
        return Ok(vec![src]);
    }
    let mut parent = vec![NodeId::MAX; n];
    let mut queue = VecDeque::new();
    parent[src as usize] = src;
    queue.push_back(src);
    while let Some(v) = queue.pop_front() {
        for &u in g.neighbors(v) {
            if parent[u as usize] != NodeId::MAX {
                continue;
            }
            if u == dst {
                parent[u as usize] = v;
                // Reconstruct.
                let mut path = vec![dst];
                let mut cur = v;
                while cur != src {
                    path.push(cur);
                    cur = parent[cur as usize];
                }
                path.push(src);
                path.reverse();
                return Ok(path);
            }
            if allowed(u) {
                parent[u as usize] = v;
                queue.push_back(u);
            }
        }
    }
    Err(PathError::Unreachable)
}

/// Graph diameter in hops; `None` when disconnected or empty.
pub fn diameter(g: &Graph) -> Option<u32> {
    if g.n() == 0 {
        return None;
    }
    let mut best = 0;
    for v in 0..g.n() as NodeId {
        best = best.max(super::bfs::eccentricity(g, v)?);
    }
    Some(best)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path5() -> Graph {
        Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)])
    }

    #[test]
    fn trivial_paths() {
        let g = path5();
        assert_eq!(shortest_path(&g, 2, 2).unwrap(), vec![2]);
        assert_eq!(shortest_path(&g, 0, 1).unwrap(), vec![0, 1]);
    }

    #[test]
    fn shortest_path_on_a_cycle_takes_the_short_side() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        let p = shortest_path(&g, 0, 2).unwrap();
        assert_eq!(p, vec![0, 1, 2]);
        let p = shortest_path(&g, 0, 4).unwrap();
        assert_eq!(p, vec![0, 5, 4]);
    }

    #[test]
    fn unreachable_and_out_of_range() {
        let g = Graph::from_edges(4, &[(0, 1)]);
        assert_eq!(shortest_path(&g, 0, 3), Err(PathError::Unreachable));
        assert_eq!(shortest_path(&g, 0, 9), Err(PathError::OutOfRange));
    }

    #[test]
    fn restriction_blocks_intermediates_not_endpoints() {
        let g = path5();
        // Forbid vertex 2 as an intermediate: 0 -> 4 becomes unreachable.
        let r = restricted_shortest_path(&g, 0, 4, |v| v != 2);
        assert_eq!(r, Err(PathError::Unreachable));
        // But 0 -> 2 is fine: 2 is an endpoint, not an intermediate.
        let p = restricted_shortest_path(&g, 0, 2, |v| v != 2).unwrap();
        assert_eq!(p, vec![0, 1, 2]);
        // And 1 -> 3 via 2 is forbidden, no alternative: unreachable.
        assert_eq!(
            restricted_shortest_path(&g, 1, 3, |v| v != 2),
            Err(PathError::Unreachable)
        );
    }

    #[test]
    fn restriction_can_lengthen_the_path() {
        // Square with diagonal: 0-1-2, 0-3-2, plus 0-2 via 1 shorter.
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (0, 3), (3, 2)]);
        let free = shortest_path(&g, 0, 2).unwrap();
        assert_eq!(free.len(), 3);
        let restricted = restricted_shortest_path(&g, 0, 2, |v| v != 1).unwrap();
        assert_eq!(restricted, vec![0, 3, 2]);
    }

    #[test]
    fn diameter_values() {
        assert_eq!(diameter(&path5()), Some(4));
        let g = Graph::from_edges(3, &[(0, 1)]);
        assert_eq!(diameter(&g), None); // disconnected
        assert_eq!(diameter(&Graph::new(0)), None);
        assert_eq!(diameter(&Graph::new(1)), Some(0));
        let k3 = Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        assert_eq!(diameter(&k3), Some(1));
    }
}
