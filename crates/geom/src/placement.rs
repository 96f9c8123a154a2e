//! Random host placement.

use crate::{Point2, Rect};
use rand::Rng;

/// Draws one point uniformly at random inside `bounds`.
pub fn uniform_point<R: Rng + ?Sized>(rng: &mut R, bounds: Rect) -> Point2 {
    Point2::new(
        rng.random_range(bounds.x0..=bounds.x1),
        rng.random_range(bounds.y0..=bounds.y1),
    )
}

/// Places `n` hosts uniformly at random inside `bounds` (the paper's host
/// allocation step).
pub fn uniform_points<R: Rng + ?Sized>(rng: &mut R, bounds: Rect, n: usize) -> Vec<Point2> {
    (0..n).map(|_| uniform_point(rng, bounds)).collect()
}

/// Places `n` hosts such that the unit-disk graph of transmission radius
/// `radius` is guaranteed connected: the first host is uniform in `bounds`,
/// and every further host is placed within `radius` of a uniformly chosen
/// already-placed anchor (clipped to `bounds`), so the placement order
/// induces a spanning tree of the resulting topology.
///
/// This is *not* the paper's uniform allocation — the joint distribution is
/// clustered around the anchors. It exists as the fallback for sparse
/// configurations where uniform placement is almost never connected (at the
/// paper's density, a 10-host topology connects in under 1% of uniform
/// draws) and a connected instance is required regardless.
///
/// # Panics
/// Panics if `radius <= 0`.
pub fn connected_uniform_points<R: Rng + ?Sized>(
    rng: &mut R,
    bounds: Rect,
    radius: f64,
    n: usize,
) -> Vec<Point2> {
    assert!(radius > 0.0, "transmission radius must be positive");
    let mut out: Vec<Point2> = Vec::with_capacity(n);
    if n == 0 {
        return out;
    }
    out.push(uniform_point(rng, bounds));
    while out.len() < n {
        let anchor = out[rng.random_range(0..out.len())];
        // Rejection-sample inside the disk around the anchor, clipped to the
        // arena. The anchor is in bounds, so at least a quarter-disk of the
        // sampling box is acceptable and the loop terminates quickly; the
        // cap only guards against pathological float edge cases.
        let bx0 = (anchor.x - radius).max(bounds.x0);
        let bx1 = (anchor.x + radius).min(bounds.x1);
        let by0 = (anchor.y - radius).max(bounds.y0);
        let by1 = (anchor.y + radius).min(bounds.y1);
        let mut placed = anchor; // co-located fallback keeps connectivity
        for _ in 0..64 {
            let p = Point2::new(rng.random_range(bx0..=bx1), rng.random_range(by0..=by1));
            if p.within(anchor, radius) {
                placed = p;
                break;
            }
        }
        out.push(placed);
    }
    out
}

/// Places `n` hosts on a jittered grid: a `ceil(sqrt n)`-per-side lattice
/// with each host displaced uniformly within its lattice cell. Useful for
/// generating well-spread (and thus more often connected) topologies in
/// tests and examples.
pub fn jittered_grid<R: Rng + ?Sized>(rng: &mut R, bounds: Rect, n: usize) -> Vec<Point2> {
    if n == 0 {
        return Vec::new();
    }
    let side = (n as f64).sqrt().ceil() as usize;
    let cw = bounds.width() / side as f64;
    let ch = bounds.height() / side as f64;
    let mut out = Vec::with_capacity(n);
    'outer: for gy in 0..side {
        for gx in 0..side {
            if out.len() == n {
                break 'outer;
            }
            let x0 = bounds.x0 + gx as f64 * cw;
            let y0 = bounds.y0 + gy as f64 * ch;
            out.push(Point2::new(
                rng.random_range(x0..=x0 + cw),
                rng.random_range(y0..=y0 + ch),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn uniform_points_stay_inside() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let bounds = Rect::paper_arena();
        for p in uniform_points(&mut rng, bounds, 500) {
            assert!(bounds.contains(p));
        }
    }

    #[test]
    fn uniform_points_count() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        assert_eq!(uniform_points(&mut rng, Rect::square(10.0), 0).len(), 0);
        assert_eq!(uniform_points(&mut rng, Rect::square(10.0), 17).len(), 17);
    }

    #[test]
    fn jittered_grid_counts_and_bounds() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let bounds = Rect::square(100.0);
        for n in [0usize, 1, 2, 9, 10, 37, 100] {
            let pts = jittered_grid(&mut rng, bounds, n);
            assert_eq!(pts.len(), n);
            assert!(pts.iter().all(|&p| bounds.contains(p)));
        }
    }

    #[test]
    fn jittered_grid_spreads_points() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let pts = jittered_grid(&mut rng, Rect::square(100.0), 16);
        // 4x4 lattice with 25-unit cells: first and last point are far apart.
        assert!(pts[0].distance(pts[15]) > 50.0);
    }

    #[test]
    fn connected_placement_has_a_spanning_tree_within_radius() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let bounds = Rect::paper_arena();
        for n in [0usize, 1, 2, 3, 10, 40] {
            let pts = connected_uniform_points(&mut rng, bounds, 25.0, n);
            assert_eq!(pts.len(), n);
            assert!(pts.iter().all(|&p| bounds.contains(p)));
            // Union-find over the radius graph must end with one component.
            let mut parent: Vec<usize> = (0..n).collect();
            fn find(parent: &mut [usize], mut v: usize) -> usize {
                while parent[v] != v {
                    parent[v] = parent[parent[v]];
                    v = parent[v];
                }
                v
            }
            for i in 0..n {
                for j in i + 1..n {
                    if pts[i].within(pts[j], 25.0) {
                        let (a, b) = (find(&mut parent, i), find(&mut parent, j));
                        parent[a] = b;
                    }
                }
            }
            let roots: std::collections::HashSet<usize> =
                (0..n).map(|v| find(&mut parent, v)).collect();
            assert!(
                roots.len() <= 1,
                "n={n} split into {} components",
                roots.len()
            );
        }
    }

    #[test]
    fn placement_is_deterministic_per_seed() {
        let bounds = Rect::paper_arena();
        let a = uniform_points(&mut rand::rngs::StdRng::seed_from_u64(9), bounds, 20);
        let b = uniform_points(&mut rand::rngs::StdRng::seed_from_u64(9), bounds, 20);
        assert_eq!(a, b);
    }
}
