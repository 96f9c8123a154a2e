//! # pacds-obs — zero-overhead-when-off instrumentation
//!
//! The paper's claims are all *measurements*, and the ROADMAP's
//! production-scale target needs to see where time goes before any of it
//! can be tuned. This crate is the metrics substrate the rest of the
//! workspace routes through: phase timers, rule-pass counters, fixed-bucket
//! latency histograms, and exporters (JSON-lines and Prometheus text
//! exposition).
//!
//! ## The two builds
//!
//! Everything hinges on the `enabled` cargo feature (surfaced as `obs` by
//! the downstream crates):
//!
//! * **off** (default) — every recording entry point is an `#[inline]`
//!   empty function or a unit struct, so the optimizer erases the
//!   instrumentation entirely; the hot paths compile as if this crate did
//!   not exist.
//! * **on** — counters are relaxed atomics in `static` fixed arrays and
//!   histograms are fixed power-of-two buckets, so recording **never
//!   allocates**: the workspace-level `tests/zero_alloc.rs` passes with
//!   metrics enabled, counters ticking on every interval.
//!
//! Hot loops do not touch the atomics per element: they accumulate into a
//! stack [`Tally`] (a `u64` when enabled, a zero-sized type when off) and
//! flush once per pass.
//!
//! ## Recording
//!
//! ```
//! use pacds_obs::{Counter, Phase, Tally};
//!
//! // Counted work: accumulate locally, flush once.
//! let mut examined = Tally::new();
//! for _ in 0..100 {
//!     examined.bump();
//! }
//! examined.flush(Counter::Rule1Candidates);
//!
//! // Timed work: the guard records elapsed time on drop.
//! {
//!     let _t = pacds_obs::phase_timer(Phase::Rule1);
//!     // ... the pass ...
//! }
//!
//! let snap = pacds_obs::Snapshot::capture();
//! if pacds_obs::enabled() {
//!     assert!(snap.counter("rule1.candidates") >= 100);
//! } else {
//!     assert_eq!(snap.counter("rule1.candidates"), 0);
//! }
//! ```
//!
//! ## Exporting
//!
//! [`Snapshot::capture`] materialises the statics into a serialisable
//! document (this is the only allocating path, meant for run boundaries,
//! not intervals). [`export::write_jsonl`] appends it as one JSON object
//! per line — the same framing as `pacds-sim`'s trace records, so the two
//! streams can share a file — and [`export::write_prometheus`] renders the
//! text exposition format.
//!
//! ## Logging
//!
//! [`log`] is a dependency-free leveled logger with `tracing`-style spans,
//! always compiled and gated at runtime by `PACDS_LOG` / an explicit level
//! (default: off, one relaxed atomic load per call site). The CLI wires it
//! to `--log-level`.

pub mod export;
pub mod log;
pub mod recorder;
pub mod series;
pub mod trace;

pub use export::{write_jsonl, write_prometheus, PhaseSnapshot, Snapshot};
pub use recorder::{
    counter_value, enabled, phase_timer, record_phase_ns, reset, shard_thread_tiles_tick,
    shard_tiles_per_thread, Counter, Phase, PhaseTimer, Tally,
};
pub use series::{SeriesTracker, WindowDelta};
pub use trace::{
    next_trace_id, reset_tracing, sampling, set_sampling, span, take_spans, trace_enabled,
    traces_jsonl, SpanGuard, SpanKind, SpanRecord, TraceId,
};

/// Convenience: increments a counter by 1 (no-op without `enabled`).
#[inline(always)]
pub fn inc(counter: Counter) {
    recorder::add(counter, 1);
}

/// Convenience: adds to a counter (no-op without `enabled`).
#[inline(always)]
pub fn add(counter: Counter, n: u64) {
    recorder::add(counter, n);
}

/// Increments a [`Counter`] by 1, or by an expression.
///
/// Expands to a recording call when the crate is built with `enabled`, and
/// to an expression-discarding no-op otherwise, so disabled builds carry no
/// trace of the instrumentation.
#[macro_export]
macro_rules! obs_count {
    ($counter:expr) => {
        $crate::inc($counter)
    };
    ($counter:expr, $n:expr) => {
        $crate::add($counter, $n as u64)
    };
}

/// Binds a scope guard timing the enclosing scope under a [`Phase`].
///
/// ```
/// # use pacds_obs::Phase;
/// fn work() {
///     pacds_obs::obs_time!(_guard, Phase::Marking);
///     // ... timed to the end of the scope ...
/// }
/// # work();
/// ```
#[macro_export]
macro_rules! obs_time {
    ($binding:ident, $phase:expr) => {
        let $binding = $crate::phase_timer($phase);
    };
}
