//! Sampled request tracing: trace ids, causally-linked span records, and a
//! fixed-capacity global span ring.
//!
//! A **trace** is one logical request (a serve frame, a churn refresh, a
//! sim interval); a **span** is one timed region attributed to that trace
//! (cache lookup, per-tile solve, merge, ...). Trace ids are handed out by
//! [`next_trace_id`] under a sampling rate set with [`set_sampling`]
//! (every Nth candidate is traced; `0` disables tracing entirely, which is
//! also the default). Unsampled traces carry [`TraceId::NONE`] and every
//! span operation on them is a no-op that never reads the clock.
//!
//! Recording is **zero-allocation**: span records land in a static ring of
//! atomics ([`SPAN_RING_CAP`] slots) via a `fetch_add` cursor; when the
//! ring wraps, the oldest records are overwritten and counted under
//! [`Counter::TraceSpansDropped`]. The ring is diagnostics, not
//! accounting: a drain that races a writer may observe a record mid-write,
//! which at worst misfiles one span — it can never corrupt memory or
//! block the data path.
//!
//! Without the `trace` feature every entry point compiles to a no-op
//! (`SpanGuard` is zero-sized and `Instant`-free), mirroring the
//! `enabled` feature's contract for counters. `trace` implies `enabled`.

#[cfg(feature = "trace")]
use crate::recorder::{add, Counter};
use serde::{Deserialize, Serialize};
#[cfg(feature = "trace")]
use std::sync::atomic::{AtomicU64, Ordering};
#[cfg(feature = "trace")]
use std::time::Instant;

/// Span ring capacity (records). Power of two so the wrap is a mask.
pub const SPAN_RING_CAP: usize = 4096;

/// Whether the tracing runtime is compiled in. `const`, so disabled
/// builds fold every `if pacds_obs::trace_enabled()` block away.
#[inline(always)]
pub const fn trace_enabled() -> bool {
    cfg!(feature = "trace")
}

/// A sampled trace identity. `0` means "not sampled": spans attributed to
/// it are never recorded. Copy/`u64` so it crosses thread and FFI
/// boundaries for free.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct TraceId(pub u64);

impl TraceId {
    /// The unsampled id: all span operations on it are no-ops.
    pub const NONE: TraceId = TraceId(0);

    /// Whether spans against this id will be recorded.
    #[inline(always)]
    pub fn is_sampled(self) -> bool {
        trace_enabled() && self.0 != 0
    }
}

/// What a span measured. The discriminant is stored in the ring, the
/// label is the JSONL spelling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[repr(u8)]
pub enum SpanKind {
    /// One serve request end-to-end (detail: request kind byte).
    Request = 0,
    /// Result-cache lookup (detail: 1 = hit, 0 = miss).
    CacheLookup = 1,
    /// Whole-graph or sharded CDS computation (detail: node count, capped).
    Compute = 2,
    /// Sharded dispatch: partition + fan-out over the worker pool
    /// (detail: tile count).
    ShardDispatch = 3,
    /// One tile's halo build + solve on a pool worker (detail: tile id).
    TileSolve = 4,
    /// Ownership-filtered merge of tile verdicts (detail: node count,
    /// capped).
    ShardMerge = 5,
    /// One churn-engine refresh (detail: tiles re-solved).
    ChurnRefresh = 6,
    /// One dirty tile's re-solve inside a churn refresh (detail: tile id).
    ChurnTile = 7,
    /// One simulator update interval (detail: interval index).
    SimInterval = 8,
    /// One dataplane pump sweep over the node graph (detail: packets
    /// admitted this sweep, capped).
    DpPump = 9,
}

/// Number of span kinds (labels table length).
pub const NUM_SPAN_KINDS: usize = 10;

/// JSONL labels, indexed by discriminant.
pub const SPAN_KIND_NAMES: [&str; NUM_SPAN_KINDS] = [
    "serve.request",
    "serve.cache_lookup",
    "serve.compute",
    "shard.dispatch",
    "shard.tile_solve",
    "shard.merge",
    "churn.refresh",
    "churn.tile",
    "sim.interval",
    "dp.pump",
];

impl SpanKind {
    /// The JSONL spelling.
    pub fn label(self) -> &'static str {
        SPAN_KIND_NAMES[self as usize]
    }
}

/// One drained span record.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanRecord {
    /// The owning trace.
    pub trace: u64,
    /// What was measured (JSONL label of [`SpanKind`]).
    pub span: String,
    /// Kind-specific detail (tile id, request kind, hit/miss, ...).
    pub detail: u32,
    /// Recording thread's obs slot (same identities as
    /// `shard_thread_tiles`).
    pub thread: u32,
    /// Start, nanoseconds since the process trace epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

#[cfg(feature = "trace")]
mod ring {
    use super::*;

    /// Sampling rate: every Nth candidate trace is sampled; 0 = off.
    pub static SAMPLE_EVERY: AtomicU64 = AtomicU64::new(0);
    /// Monotone candidate counter (sampled ids are derived from it).
    pub static TRACE_SEQ: AtomicU64 = AtomicU64::new(0);
    /// Next ring slot (monotone; slot = cursor & (CAP - 1)).
    pub static CURSOR: AtomicU64 = AtomicU64::new(0);

    /// The ring: 4 words per record — trace id, packed
    /// `kind | detail << 8 | thread << 40`, start_ns, dur_ns.
    pub static TRACE_W: [AtomicU64; SPAN_RING_CAP] =
        [const { AtomicU64::new(0) }; SPAN_RING_CAP];
    pub static META_W: [AtomicU64; SPAN_RING_CAP] =
        [const { AtomicU64::new(0) }; SPAN_RING_CAP];
    pub static START_W: [AtomicU64; SPAN_RING_CAP] =
        [const { AtomicU64::new(0) }; SPAN_RING_CAP];
    pub static DUR_W: [AtomicU64; SPAN_RING_CAP] =
        [const { AtomicU64::new(0) }; SPAN_RING_CAP];

    /// Process-wide monotonic epoch all span timestamps are relative to.
    pub fn epoch() -> Instant {
        static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
        *EPOCH.get_or_init(Instant::now)
    }
}

/// Sets the sampling rate: every `every`-th [`next_trace_id`] call hands
/// out a sampled id; `0` disables tracing. No-op without the `trace`
/// feature.
#[inline]
pub fn set_sampling(every: u64) {
    #[cfg(feature = "trace")]
    ring::SAMPLE_EVERY.store(every, Ordering::Relaxed);
    #[cfg(not(feature = "trace"))]
    let _ = every;
}

/// The current sampling rate (0 when disabled or compiled out).
#[inline]
pub fn sampling() -> u64 {
    #[cfg(feature = "trace")]
    return ring::SAMPLE_EVERY.load(Ordering::Relaxed);
    #[cfg(not(feature = "trace"))]
    0
}

/// Hands out the next trace id under the configured sampling rate.
/// Returns [`TraceId::NONE`] (making every downstream span a no-op) for
/// unsampled candidates, when sampling is 0, and in non-`trace` builds.
#[inline]
pub fn next_trace_id() -> TraceId {
    #[cfg(feature = "trace")]
    {
        let every = ring::SAMPLE_EVERY.load(Ordering::Relaxed);
        if every == 0 {
            return TraceId::NONE;
        }
        let seq = ring::TRACE_SEQ.fetch_add(1, Ordering::Relaxed);
        if seq.is_multiple_of(every) {
            TraceId(seq + 1) // ids are 1-based so 0 stays "unsampled"
        } else {
            TraceId::NONE
        }
    }
    #[cfg(not(feature = "trace"))]
    TraceId::NONE
}

/// Records one finished span. Prefer [`span`] (scope guard) — this is the
/// raw entry point for callers that already measured.
#[inline]
pub fn record_span(trace: TraceId, kind: SpanKind, detail: u32, start_ns: u64, dur_ns: u64) {
    #[cfg(feature = "trace")]
    {
        if trace.0 == 0 {
            return;
        }
        let thread = crate::recorder::par_slot() as u64;
        let at = ring::CURSOR.fetch_add(1, Ordering::Relaxed);
        let slot = (at as usize) & (SPAN_RING_CAP - 1);
        if at >= SPAN_RING_CAP as u64 {
            add(Counter::TraceSpansDropped, 1);
        }
        // Not atomic as a record: a concurrent drain may see a torn
        // record (diagnostics-grade; see the module docs).
        ring::TRACE_W[slot].store(trace.0, Ordering::Relaxed);
        ring::META_W[slot].store(
            kind as u64 | (u64::from(detail) << 8) | (thread.min(255) << 40),
            Ordering::Relaxed,
        );
        ring::START_W[slot].store(start_ns, Ordering::Relaxed);
        ring::DUR_W[slot].store(dur_ns, Ordering::Relaxed);
        add(Counter::TraceSpans, 1);
    }
    #[cfg(not(feature = "trace"))]
    let _ = (trace, kind, detail, start_ns, dur_ns);
}

/// Scope guard started by [`span`]: records on drop. Zero-sized (and
/// clock-free) when the `trace` feature is off or the trace is unsampled.
#[must_use = "the span records on drop; binding it to _ drops immediately"]
pub struct SpanGuard {
    #[cfg(feature = "trace")]
    inner: Option<(TraceId, SpanKind, u32, Instant)>,
}

/// Starts a span under `trace`; the guard records on drop. For
/// [`TraceId::NONE`] this neither reads the clock nor touches the ring.
#[inline(always)]
pub fn span(trace: TraceId, kind: SpanKind, detail: u32) -> SpanGuard {
    #[cfg(feature = "trace")]
    return SpanGuard {
        inner: (trace.0 != 0).then(|| (trace, kind, detail, Instant::now())),
    };
    #[cfg(not(feature = "trace"))]
    {
        let _ = (trace, kind, detail);
        SpanGuard {}
    }
}

impl Drop for SpanGuard {
    #[inline]
    fn drop(&mut self) {
        #[cfg(feature = "trace")]
        if let Some((trace, kind, detail, start)) = self.inner.take() {
            let start_ns = start.duration_since(ring::epoch()).as_nanos() as u64;
            let dur_ns = start.elapsed().as_nanos() as u64;
            record_span(trace, kind, detail, start_ns, dur_ns);
        }
    }
}

/// Drains the ring: every live record, ordered by `(trace, start_ns)`.
/// The ring is cleared; concurrent writers may land records that the next
/// drain picks up. Empty in non-`trace` builds.
pub fn take_spans() -> Vec<SpanRecord> {
    #[cfg(feature = "trace")]
    {
        let mut out = Vec::new();
        for slot in 0..SPAN_RING_CAP {
            let trace = ring::TRACE_W[slot].swap(0, Ordering::Relaxed);
            if trace == 0 {
                continue;
            }
            let meta = ring::META_W[slot].load(Ordering::Relaxed);
            let kind = (meta & 0xff) as usize;
            if kind >= NUM_SPAN_KINDS {
                continue; // torn record
            }
            out.push(SpanRecord {
                trace,
                span: SPAN_KIND_NAMES[kind].to_string(),
                detail: ((meta >> 8) & 0xffff_ffff) as u32,
                thread: ((meta >> 40) & 0xff) as u32,
                start_ns: ring::START_W[slot].load(Ordering::Relaxed),
                dur_ns: ring::DUR_W[slot].load(Ordering::Relaxed),
            });
        }
        out.sort_by_key(|s| (s.trace, s.start_ns));
        out
    }
    #[cfg(not(feature = "trace"))]
    Vec::new()
}

/// Drains the ring and renders one JSON line **per trace**:
/// `{"kind":"trace","trace":N,"spans":[...]}` with spans in start order —
/// one line reconstructs where that request spent its time. Empty string
/// when nothing was recorded.
pub fn traces_jsonl() -> String {
    let spans = take_spans();
    let mut out = String::new();
    let mut i = 0;
    while i < spans.len() {
        let trace = spans[i].trace;
        let mut j = i;
        while j < spans.len() && spans[j].trace == trace {
            j += 1;
        }
        out.push_str(&format!("{{\"kind\":\"trace\",\"trace\":{trace},\"spans\":["));
        for (k, s) in spans[i..j].iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"span\":\"{}\",\"detail\":{},\"thread\":{},\"start_ns\":{},\"dur_ns\":{}}}",
                s.span, s.detail, s.thread, s.start_ns, s.dur_ns
            ));
        }
        out.push_str("]}\n");
        i = j;
    }
    out
}

/// Clears the ring, the candidate counter, and the sampling rate (back to
/// off). Called by [`crate::reset`].
pub fn reset_tracing() {
    #[cfg(feature = "trace")]
    {
        ring::SAMPLE_EVERY.store(0, Ordering::Relaxed);
        ring::TRACE_SEQ.store(0, Ordering::Relaxed);
        ring::CURSOR.store(0, Ordering::Relaxed);
        for slot in 0..SPAN_RING_CAP {
            ring::TRACE_W[slot].store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(all(test, feature = "trace"))]
mod tests {
    use super::*;

    /// The ring is global; tests must not interleave (same discipline as
    /// the recorder tests).
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn sampling_gates_trace_ids() {
        let _g = serial();
        reset_tracing();
        assert_eq!(next_trace_id(), TraceId::NONE);
        set_sampling(1);
        let a = next_trace_id();
        let b = next_trace_id();
        assert!(a.is_sampled() && b.is_sampled() && a != b);
        set_sampling(1000);
        // Candidate counter continues: at most one of the next few samples.
        let sampled = (0..10).filter(|_| next_trace_id().is_sampled()).count();
        assert!(sampled <= 1);
        reset_tracing();
    }

    #[test]
    fn spans_record_and_drain_grouped() {
        let _g = serial();
        reset_tracing();
        set_sampling(1);
        let t1 = next_trace_id();
        let t2 = next_trace_id();
        {
            let _a = span(t1, SpanKind::Request, 1);
            let _b = span(t1, SpanKind::CacheLookup, 0);
            std::thread::sleep(std::time::Duration::from_micros(50));
        }
        record_span(t2, SpanKind::ChurnTile, 7, 100, 40);
        let spans = take_spans();
        assert_eq!(spans.len(), 3);
        assert!(spans.iter().all(|s| s.trace == t1.0 || s.trace == t2.0));
        let req = spans.iter().find(|s| s.span == "serve.request").unwrap();
        assert!(req.dur_ns >= 50_000);
        // Ring cleared by the drain.
        assert!(take_spans().is_empty());
        reset_tracing();
    }

    #[test]
    fn unsampled_spans_are_noops() {
        let _g = serial();
        reset_tracing();
        set_sampling(1);
        {
            let _s = span(TraceId::NONE, SpanKind::Compute, 9);
        }
        record_span(TraceId::NONE, SpanKind::Compute, 9, 0, 1);
        assert!(take_spans().is_empty());
        reset_tracing();
    }

    #[test]
    fn ring_wrap_overwrites_and_counts_drops() {
        let _g = serial();
        crate::reset();
        set_sampling(1);
        let t = next_trace_id();
        for i in 0..(SPAN_RING_CAP as u32 + 10) {
            record_span(t, SpanKind::TileSolve, i, u64::from(i), 1);
        }
        assert!(crate::counter_value(Counter::TraceSpansDropped) >= 10);
        let spans = take_spans();
        assert_eq!(spans.len(), SPAN_RING_CAP);
        // The oldest 10 records were overwritten.
        assert!(spans.iter().all(|s| s.detail >= 10));
        crate::reset();
    }

    #[test]
    fn traces_jsonl_one_line_per_trace() {
        let _g = serial();
        reset_tracing();
        set_sampling(1);
        let t1 = next_trace_id();
        let t2 = next_trace_id();
        record_span(t1, SpanKind::Request, 1, 10, 500);
        record_span(t1, SpanKind::Compute, 0, 20, 400);
        record_span(t2, SpanKind::ChurnRefresh, 3, 30, 100);
        let text = traces_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"kind\":\"trace\""));
        assert!(lines[0].contains("\"serve.request\""));
        assert!(lines[0].contains("\"serve.compute\""));
        assert!(lines[1].contains("\"churn.refresh\""));
        reset_tracing();
    }
}
