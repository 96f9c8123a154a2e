//! The mobility model trait and its implementations.

use pacds_geom::{Boundary, Compass, Point2, Rect};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A mobility model advances host positions by one update interval.
///
/// Models are stateless per-host except through `state` slots they manage
/// themselves (random waypoint keeps per-host targets), so a single model
/// instance drives any number of hosts.
pub trait MobilityModel {
    /// Advances all `positions` by one update interval, using `rng` for
    /// randomness and keeping every host inside `bounds`.
    fn step<R: Rng + ?Sized>(&mut self, rng: &mut R, bounds: Rect, positions: &mut [Point2]);
}

/// The paper's probabilistic 8-direction walk.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PaperWalk {
    /// Probability that a host remains stable during an interval (`c`,
    /// 0.5 in the paper).
    pub stay_probability: f64,
    /// Maximum step length; the paper draws `l ∈ [1..6]` uniformly.
    pub max_step: u32,
    /// Boundary policy (the paper's free space clamps at the walls).
    pub boundary: Boundary,
    /// If true, diagonal moves displace `l` along *each* axis (the paper's
    /// integer-grid reading); if false, every move has length exactly `l`.
    pub grid_diagonals: bool,
}

impl PaperWalk {
    /// The parameters used in the paper's simulation.
    pub fn paper() -> Self {
        Self {
            stay_probability: 0.5,
            max_step: 6,
            boundary: Boundary::Clamp,
            grid_diagonals: true,
        }
    }

    /// Same walk with a different stay probability `c`.
    pub fn with_stay_probability(c: f64) -> Self {
        assert!((0.0..=1.0).contains(&c), "probability out of range");
        Self {
            stay_probability: c,
            ..Self::paper()
        }
    }
}

impl MobilityModel for PaperWalk {
    fn step<R: Rng + ?Sized>(&mut self, rng: &mut R, bounds: Rect, positions: &mut [Point2]) {
        for p in positions.iter_mut() {
            // rand(0,1) < c  =>  the host remains stable this interval.
            if rng.random_range(0.0..1.0) < self.stay_probability {
                continue;
            }
            let dir = Compass::random(rng);
            let l = rng.random_range(1..=self.max_step) as f64;
            let v = if self.grid_diagonals {
                dir.offset(l)
            } else {
                dir.unit() * l
            };
            *p = bounds.step(*p, v, self.boundary);
        }
    }
}

/// Hosts never move. Useful for isolating CDS-size effects from mobility.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Static;

impl MobilityModel for Static {
    fn step<R: Rng + ?Sized>(&mut self, _rng: &mut R, _bounds: Rect, _positions: &mut [Point2]) {}
}

/// Random waypoint: each host walks toward a private uniformly-drawn target
/// at a fixed speed, picking a new target on arrival.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RandomWaypoint {
    /// Distance covered per update interval.
    pub speed: f64,
    targets: Vec<Point2>,
}

impl RandomWaypoint {
    /// A random-waypoint model moving `speed` units per interval.
    pub fn new(speed: f64) -> Self {
        assert!(speed > 0.0);
        Self {
            speed,
            targets: Vec::new(),
        }
    }
}

impl MobilityModel for RandomWaypoint {
    fn step<R: Rng + ?Sized>(&mut self, rng: &mut R, bounds: Rect, positions: &mut [Point2]) {
        if self.targets.len() != positions.len() {
            self.targets = positions
                .iter()
                .map(|_| pacds_geom::placement::uniform_point(rng, bounds))
                .collect();
        }
        for (p, target) in positions.iter_mut().zip(self.targets.iter_mut()) {
            let to_target = *target - *p;
            let dist = to_target.norm();
            if dist <= self.speed {
                *p = *target;
                *target = pacds_geom::placement::uniform_point(rng, bounds);
            } else {
                let dir = to_target / dist;
                *p = bounds.clamp(*p + dir * self.speed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn positions(n: usize, seed: u64) -> Vec<Point2> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        pacds_geom::placement::uniform_points(&mut rng, Rect::paper_arena(), n)
    }

    #[test]
    fn static_model_never_moves() {
        let mut pos = positions(20, 1);
        let orig = pos.clone();
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        Static.step(&mut rng, Rect::paper_arena(), &mut pos);
        assert_eq!(pos, orig);
    }

    #[test]
    fn paper_walk_keeps_hosts_in_bounds() {
        let bounds = Rect::paper_arena();
        let mut pos = positions(50, 3);
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let mut walk = PaperWalk::paper();
        for _ in 0..200 {
            walk.step(&mut rng, bounds, &mut pos);
            assert!(pos.iter().all(|&p| bounds.contains(p)));
        }
    }

    #[test]
    fn paper_walk_moves_roughly_half_the_hosts() {
        let bounds = Rect::paper_arena();
        let mut pos = positions(1000, 5);
        let before = pos.clone();
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        PaperWalk::paper().step(&mut rng, bounds, &mut pos);
        let moved = pos
            .iter()
            .zip(&before)
            .filter(|(a, b)| a.distance2(**b) > 0.0)
            .count();
        // c = 0.5: expect ~500 movers; allow generous slack.
        assert!((350..=650).contains(&moved), "moved = {moved}");
    }

    #[test]
    fn stay_probability_one_freezes_everyone() {
        let bounds = Rect::paper_arena();
        let mut pos = positions(30, 7);
        let before = pos.clone();
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        PaperWalk::with_stay_probability(1.0).step(&mut rng, bounds, &mut pos);
        assert_eq!(pos, before);
    }

    #[test]
    fn stay_probability_zero_moves_everyone() {
        let bounds = Rect::paper_arena();
        // Interior positions so clamping cannot mask a move of >= 1 unit.
        let mut pos = vec![Point2::new(50.0, 50.0); 40];
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        PaperWalk::with_stay_probability(0.0).step(&mut rng, bounds, &mut pos);
        assert!(pos
            .iter()
            .all(|p| p.distance(Point2::new(50.0, 50.0)) >= 1.0 - 1e-9));
    }

    #[test]
    fn paper_walk_step_lengths_are_bounded() {
        let bounds = Rect::square(1000.0);
        let start = Point2::new(500.0, 500.0);
        let mut rng = rand::rngs::StdRng::seed_from_u64(10);
        let mut walk = PaperWalk::with_stay_probability(0.0);
        for _ in 0..500 {
            let mut pos = vec![start];
            walk.step(&mut rng, bounds, &mut pos);
            let d = pos[0].distance(start);
            // Grid diagonals: max displacement 6 * sqrt(2).
            assert!((1.0 - 1e-9..=6.0 * std::f64::consts::SQRT_2 + 1e-9).contains(&d));
        }
    }

    #[test]
    fn unit_diagonals_bound_step_by_max_step() {
        let bounds = Rect::square(1000.0);
        let start = Point2::new(500.0, 500.0);
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let mut walk = PaperWalk {
            grid_diagonals: false,
            ..PaperWalk::with_stay_probability(0.0)
        };
        for _ in 0..500 {
            let mut pos = vec![start];
            walk.step(&mut rng, bounds, &mut pos);
            let d = pos[0].distance(start);
            assert!((1.0 - 1e-9..=6.0 + 1e-9).contains(&d));
        }
    }

    #[test]
    fn random_waypoint_converges_on_targets() {
        let bounds = Rect::paper_arena();
        let mut pos = positions(10, 12);
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let mut rw = RandomWaypoint::new(5.0);
        for _ in 0..500 {
            rw.step(&mut rng, bounds, &mut pos);
            assert!(pos.iter().all(|&p| bounds.contains(p)));
        }
        // After many steps positions should have spread from their origins.
        let spread = pos
            .iter()
            .zip(positions(10, 12).iter())
            .filter(|(a, b)| a.distance(**b) > 1.0)
            .count();
        assert!(spread >= 8, "random waypoint should move hosts");
    }

    #[test]
    fn random_waypoint_moves_at_most_speed_per_step() {
        let bounds = Rect::paper_arena();
        let mut pos = positions(5, 14);
        let mut rng = rand::rngs::StdRng::seed_from_u64(15);
        let mut rw = RandomWaypoint::new(2.5);
        for _ in 0..100 {
            let before = pos.clone();
            rw.step(&mut rng, bounds, &mut pos);
            for (a, b) in pos.iter().zip(&before) {
                assert!(a.distance(*b) <= 2.5 + 1e-9);
            }
        }
    }

    #[test]
    #[should_panic]
    fn invalid_stay_probability_panics() {
        PaperWalk::with_stay_probability(1.5);
    }
}
