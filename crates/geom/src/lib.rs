//! 2-D geometry substrate for the PACDS ad hoc wireless network simulator.
//!
//! The paper simulates hosts in a `100 x 100` free-space region with a
//! transmission radius of 25 units. This crate provides the small geometric
//! vocabulary that the rest of the workspace builds on:
//!
//! * [`Point2`] / [`Vec2`] — positions and displacements with exact `f64`
//!   arithmetic helpers (squared distances to avoid `sqrt` in hot loops).
//! * [`Rect`] — the simulation arena, with the three boundary policies used
//!   by the mobility models (clamp, reflect, torus).
//! * [`Compass`] — the paper's eight movement directions (E, S, W, N, SE,
//!   NE, SW, NW).
//! * [`placement`] — random uniform host placement.

pub mod direction;
pub mod placement;
pub mod point;
pub mod rect;

pub use direction::Compass;
pub use point::{Point2, Vec2};
pub use rect::{Boundary, Rect};

/// Numeric tolerance used when comparing distances against a radius.
///
/// Unit-disk membership is decided with `d^2 <= r^2 + EPS` so that hosts
/// placed exactly on the rim (a measure-zero event for random placement, but
/// common in hand-written tests) are treated as connected.
pub const EPS: f64 = 1e-9;
