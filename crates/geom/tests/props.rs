//! Property-based tests for the geometry substrate.

use pacds_geom::{placement, Boundary, Compass, Point2, Rect, Vec2};
use proptest::prelude::*;
use rand::SeedableRng;

fn arena() -> impl Strategy<Value = Rect> {
    (1.0f64..500.0, 1.0f64..500.0).prop_map(|(w, h)| Rect::new(0.0, 0.0, w, h))
}

fn point_in(r: Rect) -> impl Strategy<Value = Point2> {
    (r.x0..=r.x1, r.y0..=r.y1).prop_map(|(x, y)| Point2::new(x, y))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn distance_satisfies_metric_axioms(
        ax in -1e3f64..1e3, ay in -1e3f64..1e3,
        bx in -1e3f64..1e3, by in -1e3f64..1e3,
        cx in -1e3f64..1e3, cy in -1e3f64..1e3,
    ) {
        let (a, b, c) = (Point2::new(ax, ay), Point2::new(bx, by), Point2::new(cx, cy));
        prop_assert!((a.distance(b) - b.distance(a)).abs() < 1e-9);
        prop_assert!(a.distance(a) == 0.0);
        // Triangle inequality with float slack.
        prop_assert!(a.distance(c) <= a.distance(b) + b.distance(c) + 1e-9);
        // distance2 is the square of distance.
        prop_assert!((a.distance2(b) - a.distance(b).powi(2)).abs() < 1e-6);
    }

    #[test]
    fn every_boundary_policy_confines_points(
        bounds in arena(),
        px in 0.0f64..1.0, py in 0.0f64..1.0,
        vx in -1e4f64..1e4, vy in -1e4f64..1e4,
    ) {
        let p = Point2::new(
            bounds.x0 + px * bounds.width(),
            bounds.y0 + py * bounds.height(),
        );
        for policy in [Boundary::Clamp, Boundary::Reflect, Boundary::Torus] {
            let q = bounds.step(p, Vec2::new(vx, vy), policy);
            prop_assert!(bounds.contains(q), "{policy:?}: {q:?} outside {bounds:?}");
        }
    }

    #[test]
    fn reflect_is_identity_inside(bounds in arena(), px in 0.0f64..1.0, py in 0.0f64..1.0) {
        let p = Point2::new(
            bounds.x0 + px * bounds.width(),
            bounds.y0 + py * bounds.height(),
        );
        let q = bounds.reflect(p);
        prop_assert!((p.x - q.x).abs() < 1e-9 && (p.y - q.y).abs() < 1e-9);
    }

    #[test]
    fn compass_offsets_scale_linearly(l in 0.0f64..100.0) {
        for d in Compass::ALL {
            let o = d.offset(l);
            let u = d.unit() * l;
            // Unit form has length exactly l; offset form l or l*sqrt2.
            prop_assert!((u.norm() - l).abs() < 1e-9);
            let expect = if d.is_diagonal() { l * std::f64::consts::SQRT_2 } else { l };
            prop_assert!((o.norm() - expect).abs() < 1e-9);
        }
    }

    #[test]
    fn jittered_grid_is_in_bounds_and_counted(bounds in arena(), n in 0usize..120, seed in any::<u64>()) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let pts = placement::jittered_grid(&mut rng, bounds, n);
        prop_assert_eq!(pts.len(), n);
        prop_assert!(pts.iter().all(|&p| bounds.contains(p)));
    }
}

proptest! {
    #[test]
    fn point_strategy_stays_in_its_rect(p in point_in(Rect::square(10.0))) {
        prop_assert!(Rect::square(10.0).contains(p));
    }
}
