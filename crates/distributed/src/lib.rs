//! Distributed (message-passing) execution of the marking process and the
//! selective-removal rules.
//!
//! The centralised functions in `pacds-core` compute on the whole graph at
//! once. The paper's algorithm, however, is *localized*: each host acts
//! only on information received from its neighbours. This crate executes
//! exactly that protocol — one state machine per host, driven by messages
//! from its radio neighbours, with **no shared view of the topology** —
//! and the test-suite proves the outcome is identical to the centralised
//! computation for every policy and every delivery [`Schedule`].
//!
//! Protocol rounds (each host collects exactly `deg(v)` messages per round
//! before it acts, so no global barrier is needed):
//!
//! 1. **Hello** — send `(N(v), el(v))` to every neighbour. Afterwards a
//!    host knows its distance-2 neighbourhood, each neighbour's degree and
//!    energy level.
//! 2. **Marker** — compute `m(v)` (two unconnected neighbours?) and send it.
//! 3. **Rule 1** — unmark per Rule 1 using neighbours' markers; send the
//!    updated marker (the extra exchange step the paper notes is needed
//!    before Rule 2).
//! 4. **Rule 2** — unmark per Rule 2 on the updated markers.

pub mod engine;
pub mod node;
pub mod stats;

pub use engine::{run_distributed, Run, Schedule};
pub use node::{LocalView, NodeState};
pub use stats::{protocol_stats, ProtocolStats};
