//! The rectangular simulation arena and its boundary policies.

use crate::{Point2, Vec2};
use serde::{Deserialize, Serialize};

/// How a mobility step that would leave the arena is resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Boundary {
    /// Coordinates are clamped to the arena edge. This matches the paper's
    /// free-space model, where a host simply stops at the wall.
    #[default]
    Clamp,
    /// The step reflects off the wall like a billiard ball.
    Reflect,
    /// Opposite edges are identified (the arena is a torus).
    Torus,
}

/// An axis-aligned rectangle `[x0, x1] x [y0, y1]`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Rect {
    pub x0: f64,
    pub y0: f64,
    pub x1: f64,
    pub y1: f64,
}

impl Rect {
    /// Creates a rectangle from its corners. Panics if degenerate or flipped.
    pub fn new(x0: f64, y0: f64, x1: f64, y1: f64) -> Self {
        assert!(x1 > x0 && y1 > y0, "Rect must have positive area");
        Self { x0, y0, x1, y1 }
    }

    /// The paper's arena: a `100 x 100` square anchored at the origin.
    pub fn paper_arena() -> Self {
        Self::new(0.0, 0.0, 100.0, 100.0)
    }

    /// A square `[0, side] x [0, side]`.
    pub fn square(side: f64) -> Self {
        Self::new(0.0, 0.0, side, side)
    }

    #[inline]
    pub fn width(&self) -> f64 {
        self.x1 - self.x0
    }

    #[inline]
    pub fn height(&self) -> f64 {
        self.y1 - self.y0
    }

    #[inline]
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    #[inline]
    pub fn center(&self) -> Point2 {
        Point2::new((self.x0 + self.x1) * 0.5, (self.y0 + self.y1) * 0.5)
    }

    /// Whether `p` lies inside the rectangle (inclusive of the boundary).
    #[inline]
    pub fn contains(&self, p: Point2) -> bool {
        p.x >= self.x0 && p.x <= self.x1 && p.y >= self.y0 && p.y <= self.y1
    }

    /// Applies a displacement to `p` and resolves the boundary per `policy`.
    pub fn step(&self, p: Point2, v: Vec2, policy: Boundary) -> Point2 {
        let raw = p + v;
        match policy {
            Boundary::Clamp => self.clamp(raw),
            Boundary::Reflect => self.reflect(raw),
            Boundary::Torus => self.wrap(raw),
        }
    }

    /// Clamps a point into the rectangle.
    pub fn clamp(&self, p: Point2) -> Point2 {
        Point2::new(p.x.clamp(self.x0, self.x1), p.y.clamp(self.y0, self.y1))
    }

    /// Reflects a point that overshot a wall back inside. Handles multiple
    /// bounces for displacements longer than the arena.
    pub fn reflect(&self, p: Point2) -> Point2 {
        Point2::new(
            reflect_axis(p.x, self.x0, self.x1),
            reflect_axis(p.y, self.y0, self.y1),
        )
    }

    /// Wraps a point around the torus.
    pub fn wrap(&self, p: Point2) -> Point2 {
        Point2::new(
            wrap_axis(p.x, self.x0, self.x1),
            wrap_axis(p.y, self.y0, self.y1),
        )
    }
}

fn reflect_axis(mut v: f64, lo: f64, hi: f64) -> f64 {
    let span = hi - lo;
    // Fold into [lo, lo + 2*span) then mirror the upper half.
    let period = 2.0 * span;
    v = (v - lo).rem_euclid(period);
    if v > span {
        v = period - v;
    }
    lo + v
}

fn wrap_axis(v: f64, lo: f64, hi: f64) -> f64 {
    lo + (v - lo).rem_euclid(hi - lo)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_arena_dimensions() {
        let r = Rect::paper_arena();
        assert_eq!(r.width(), 100.0);
        assert_eq!(r.height(), 100.0);
        assert_eq!(r.area(), 10_000.0);
        assert_eq!(r.center(), Point2::new(50.0, 50.0));
    }

    #[test]
    #[should_panic]
    fn degenerate_rect_panics() {
        let _ = Rect::new(0.0, 0.0, 0.0, 10.0);
    }

    #[test]
    fn contains_is_inclusive() {
        let r = Rect::square(10.0);
        assert!(r.contains(Point2::new(0.0, 0.0)));
        assert!(r.contains(Point2::new(10.0, 10.0)));
        assert!(!r.contains(Point2::new(10.0001, 5.0)));
    }

    #[test]
    fn clamp_stops_at_walls() {
        let r = Rect::square(100.0);
        let p = r.step(
            Point2::new(99.0, 50.0),
            Vec2::new(6.0, 0.0),
            Boundary::Clamp,
        );
        assert_eq!(p, Point2::new(100.0, 50.0));
    }

    #[test]
    fn reflect_bounces_back() {
        let r = Rect::square(100.0);
        let p = r.step(
            Point2::new(99.0, 50.0),
            Vec2::new(6.0, 0.0),
            Boundary::Reflect,
        );
        assert!((p.x - 95.0).abs() < 1e-12);
        assert_eq!(p.y, 50.0);
    }

    #[test]
    fn reflect_handles_multiple_bounces() {
        let r = Rect::square(10.0);
        // 10 + 25 = 35 -> fold by period 20 -> 15 -> mirror -> 5
        let p = r.reflect(Point2::new(35.0, 5.0));
        assert!((p.x - 5.0).abs() < 1e-12);
    }

    #[test]
    fn torus_wraps_around() {
        let r = Rect::square(100.0);
        let p = r.step(
            Point2::new(99.0, 50.0),
            Vec2::new(6.0, 0.0),
            Boundary::Torus,
        );
        assert!((p.x - 5.0).abs() < 1e-12);
    }

    #[test]
    fn all_policies_keep_points_inside() {
        let r = Rect::square(100.0);
        for policy in [Boundary::Clamp, Boundary::Reflect, Boundary::Torus] {
            for (px, py, vx, vy) in [
                (0.0, 0.0, -250.0, -1.0),
                (100.0, 100.0, 333.3, 777.7),
                (50.0, 50.0, 0.0, 0.0),
            ] {
                let q = r.step(Point2::new(px, py), Vec2::new(vx, vy), policy);
                assert!(r.contains(q), "{policy:?} escaped: {q:?}");
            }
        }
    }
}
