//! Dominating-set-based routing (Section 2.1 of the paper).
//!
//! Once a connected dominating set (the *gateway* hosts) is in place,
//! routing reduces to three steps:
//!
//! 1. a non-gateway source forwards to an adjacent *source gateway*;
//! 2. the packet travels inside the subgraph induced by the gateways;
//! 3. the *destination gateway* (the destination itself, or one of its
//!    gateway neighbours) delivers the packet.
//!
//! The paper keeps these as Figure 2's dense per-gateway tables.
//! [`BackboneRoutes`] is the one production table: the same routes from
//! one distance array per destination gateway in use, repaired in place
//! when the backbone changes, so it scales to n = 10⁶ (the dense tables
//! are the reference in `pacds_testkit::oracle`).
//! [`BackboneRoutes::assemble`] executes the three-step procedure;
//! [`stretch`] compares the resulting hop counts against true shortest
//! paths.

pub mod flood;
pub mod robustness;
pub mod stretch;
pub mod tables;

pub use flood::{flood_cost, FloodCost};
pub use robustness::{backbone_robustness, RobustnessReport};
pub use stretch::{stretch, stretch_summary, StretchSummary};
pub use tables::{hop_count, is_valid_walk, BackboneRoutes, RouteError};
