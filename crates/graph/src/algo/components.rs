//! Connectivity queries.

use crate::{Graph, NodeId};
use std::collections::VecDeque;

/// Component label of each vertex (labels are dense, in discovery order).
pub fn connected_components(g: &Graph) -> Vec<u32> {
    let n = g.n();
    let mut label = vec![u32::MAX; n];
    let mut next = 0u32;
    let mut queue = VecDeque::new();
    for s in 0..n {
        if label[s] != u32::MAX {
            continue;
        }
        label[s] = next;
        queue.push_back(s as NodeId);
        while let Some(v) = queue.pop_front() {
            for &u in g.neighbors(v) {
                if label[u as usize] == u32::MAX {
                    label[u as usize] = next;
                    queue.push_back(u);
                }
            }
        }
        next += 1;
    }
    label
}

/// Number of connected components (0 for the empty graph).
pub fn num_components(g: &Graph) -> usize {
    connected_components(g)
        .iter()
        .map(|&l| l + 1)
        .max()
        .unwrap_or(0) as usize
}

/// Whether the graph is connected. The empty graph and singletons count as
/// connected (the simulator never routes on them anyway).
pub fn is_connected(g: &Graph) -> bool {
    num_components(g) <= 1
}

/// Whether the sub-vertex-set `mask` induces a connected subgraph of `g`.
/// An empty set is considered connected.
pub fn is_connected_within(g: &Graph, mask: &[bool]) -> bool {
    let mut seen = vec![false; g.n()];
    let mut queue = VecDeque::new();
    is_connected_within_scratch(g, mask, &mut seen, &mut queue)
}

/// [`is_connected_within`] with caller-provided scratch (BFS visited flags
/// and queue), so hot loops can run the check allocation-free. The buffers
/// are cleared and resized internally; their contents on entry are ignored.
pub fn is_connected_within_scratch(
    g: &Graph,
    mask: &[bool],
    seen: &mut Vec<bool>,
    queue: &mut VecDeque<NodeId>,
) -> bool {
    let Some(start) = mask.iter().position(|&b| b) else {
        return true;
    };
    seen.clear();
    seen.resize(g.n(), false);
    queue.clear();
    seen[start] = true;
    queue.push_back(start as NodeId);
    let mut count = 1usize;
    while let Some(v) = queue.pop_front() {
        for &u in g.neighbors(v) {
            if mask[u as usize] && !seen[u as usize] {
                seen[u as usize] = true;
                count += 1;
                queue.push_back(u);
            }
        }
    }
    count == mask.iter().filter(|&&b| b).count()
}

/// The vertex set of the largest connected component, as a mask. Ties break
/// towards the component discovered first.
pub fn largest_component(g: &Graph) -> Vec<bool> {
    let labels = connected_components(g);
    let k = labels.iter().map(|&l| l as usize + 1).max().unwrap_or(0);
    let mut sizes = vec![0usize; k];
    for &l in &labels {
        sizes[l as usize] += 1;
    }
    let best = (0..k)
        .max_by_key(|&i| (sizes[i], std::cmp::Reverse(i)))
        .unwrap_or(0);
    labels.iter().map(|&l| l as usize == best).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph_is_connected() {
        assert!(is_connected(&Graph::new(0)));
        assert_eq!(num_components(&Graph::new(0)), 0);
    }

    #[test]
    fn singleton_is_connected() {
        assert!(is_connected(&Graph::new(1)));
    }

    #[test]
    fn two_components() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (3, 4)]);
        assert!(!is_connected(&g));
        assert_eq!(num_components(&g), 2);
        let labels = connected_components(&g);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[1], labels[2]);
        assert_eq!(labels[3], labels[4]);
        assert_ne!(labels[0], labels[3]);
    }

    #[test]
    fn isolated_vertices_are_their_own_components() {
        let g = Graph::new(3);
        assert_eq!(num_components(&g), 3);
    }

    #[test]
    fn largest_component_mask() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (3, 4)]);
        let mask = largest_component(&g);
        assert_eq!(mask, vec![true, true, true, false, false, false]);
    }

    #[test]
    fn largest_component_tie_breaks_to_first() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        let mask = largest_component(&g);
        assert_eq!(mask, vec![true, true, false, false]);
    }

    #[test]
    fn connected_within_subset() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        assert!(is_connected_within(&g, &[true, true, true, false, false]));
        // {0, 2} is not connected within g (1 is excluded).
        assert!(!is_connected_within(&g, &[true, false, true, false, false]));
        assert!(is_connected_within(&g, &[false; 5]));
        assert!(is_connected_within(&g, &[false, false, true, false, false]));
    }
}
