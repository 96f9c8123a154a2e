//! # pacds-serve — the CDS query service
//!
//! A dominating-set engine is only useful to a routing stack if it can be
//! *asked*. This crate turns the `pacds-core` pipeline into a long-running
//! network service: a std-only TCP server speaking a versioned,
//! length-prefixed binary protocol, answering three kinds of questions —
//!
//! * **compute-CDS** — a topology (and optionally per-host energy) plus a
//!   [`CdsConfig`](pacds_core::CdsConfig) in; the gateway mask and stage
//!   statistics (marked, after Rule 1, final, rounds) out.
//! * **generate-and-compute** — unit-disk placement parameters and a seed
//!   in; the server generates the topology deterministically and computes.
//! * **stats** — the server's always-on counters plus the rendered
//!   `pacds-obs` snapshot (table, JSONL, or Prometheus).
//!
//! ## Design
//!
//! * [`frame`] — the frame server `pacds-serve` and the `pacds-cluster`
//!   coordinator share: acceptor, bounded connection queue, worker pool,
//!   graceful shutdown, and the one length-prefixed frame reader.
//! * [`server`] — runs [`handle_payload`] on the frame server; each worker
//!   owns a long-lived [`handler::WorkerScratch`] (a retained
//!   [`CdsWorkspace`](pacds_core::CdsWorkspace) plus buffers), so
//!   steady-state cache-warm serving performs **zero allocations** —
//!   pinned by the workspace-level `tests/zero_alloc.rs`.
//! * [`cache`] — a sharded LRU keyed by a word-wide 128-bit digest of the
//!   *canonical* (order-independent) edge list + config + energy, built on
//!   `pacds_graph::digest`. Permuted wire orders share one entry.
//! * Backpressure is explicit: a bounded accept queue; when full, clients
//!   get a fast typed `REJECTED` frame instead of unbounded queueing.
//!   Per-request deadlines return `DEADLINE_EXCEEDED`.
//! * [`server::ServerHandle::shutdown`] drains: queued connections are
//!   served, in-flight frames finish, then workers exit.
//! * [`loadgen`] — closed- and open-loop load generation with
//!   coordinated-omission-corrected tail latency (p50/p99/p999).
//!
//! The protocol lives in [`protocol`]; a small blocking [`client::Client`]
//! rounds out the crate for tests, tooling, and the CLI.

pub mod cache;
pub mod client;
pub mod frame;
pub mod handler;
pub mod hub;
pub mod keys;
pub mod loadgen;
pub mod protocol;
pub mod server;

pub use cache::{CacheStats, ShardedCache};
pub use client::{Client, ClientError, Push};
pub use handler::{
    handle_payload, GraphRegistry, HandleOutcome, ServeState, ServerStats, ShardMode, ShardPolicy,
    WorkerScratch, MAX_OPEN_GRAPHS,
};
pub use hub::{SubscriberHub, Subscription};
pub use loadgen::{KindStats, LoadReport, LoadgenConfig, Mode};
pub use protocol::{
    CdsResult, ErrorCode, FlipEvent, GraphOpened, MutateResult, RequestKind, ResponseKind,
    StatsDelta, StatsFormat, SubscribeAck, TileResult, WireEvent, PROTOCOL_VERSION, SUB_FLIPS,
    SUB_STATS,
};
pub use server::{serve, ServerConfig, ServerHandle};
