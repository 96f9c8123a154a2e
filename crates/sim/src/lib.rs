//! The ad hoc wireless network simulator of Section 4.
//!
//! One *update interval* consists of:
//!
//! 1. build the unit-disk graph of the current host positions;
//! 2. run the marking process and the configured rule family to obtain the
//!    gateway set `G'`, recording `|G'|`;
//! 3. drain every host's battery (`d` for gateways, `d'` for the rest); if
//!    a host dies the run ends and reports the interval count (the
//!    *network lifetime*);
//! 4. move hosts per the mobility model and start the next interval.
//!
//! [`experiments`] wraps this loop into the paper's two studies — average
//! gateway count (Figure 10) and average lifetime under three drain models
//! (Figures 11–13) — and [`montecarlo`] runs independent trials with
//! per-trial deterministic seeding.

pub mod config;
pub mod csv;
pub mod experiments;
pub mod load;
pub mod montecarlo;
pub mod network;
pub mod render;
pub mod scenario;
pub mod simulation;
pub mod stats;
pub mod trace;

pub use config::{ConnectivityMode, SimConfig};
pub use load::{load_aware_lifetime, LoadConfig, LoadOutcome};
pub use network::NetworkState;
pub use render::render_ascii;
pub use scenario::{ExperimentKind, Scenario, ScenarioResult};
pub use simulation::{run_extended_lifetime, ExtendedOutcome, LifetimeOutcome, Simulation};
pub use stats::Summary;
pub use trace::{TraceRecord, TraceRecorder};
