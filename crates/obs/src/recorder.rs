//! The recording runtime: static atomic counters, phase timers, and
//! fixed-bucket histograms.
//!
//! Storage is `static` arrays of [`AtomicU64`] indexed by the [`Counter`]
//! and [`Phase`] enums — no registration step, no locks, no heap. All
//! updates use `Ordering::Relaxed`: metrics are monotone sums, so no
//! cross-counter consistency is needed, and a snapshot taken while work is
//! in flight is simply a valid earlier state of each counter.
//!
//! When the `enabled` feature is off, the storage does not exist and every
//! function in this module is an empty `#[inline(always)]` stub.

#[cfg(feature = "enabled")]
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
#[cfg(feature = "enabled")]
use std::time::Instant;

macro_rules! metric_enum {
    ($(#[$doc:meta])* $vis:vis enum $name:ident / $names:ident / $count:ident {
        $($(#[$vdoc:meta])* $variant:ident => $label:literal,)*
    }) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(usize)]
        $vis enum $name {
            $($(#[$vdoc])* $variant,)*
        }

        /// Exported label of each variant, indexed by discriminant.
        $vis const $names: &[&str] = &[$($label),*];

        /// Number of variants.
        $vis const $count: usize = $names.len();

        impl $name {
            /// The export label (stable across builds; used by the
            /// JSONL/Prometheus exporters and the CLI report).
            #[inline]
            pub fn label(self) -> &'static str {
                $names[self as usize]
            }
        }
    };
}

metric_enum! {
    /// Monotone event counters.
    ///
    /// Grouped by subsystem; the labels are the wire names. Rule-pass
    /// counters follow the pre-filter cascade of `pacds-core::rules`: a
    /// candidate is *examined*, may be *rejected by the pre-filter*
    /// (degree/marker/priority gate), then *witness-probed* (single-bit
    /// test), and only survivors reach the full *subset scan*.
    pub enum Counter / COUNTER_NAMES / NUM_COUNTERS {
        /// Vertices scanned by the marking process.
        MarkingScanned => "marking.vertices_scanned",
        /// Vertices the marking process marked.
        MarkingMarked => "marking.marked",
        /// Rule 1: neighbour candidates examined for coverage.
        Rule1Candidates => "rule1.candidates",
        /// Rule 1: candidates rejected by the degree/marker/priority gate.
        Rule1PrefilterRejects => "rule1.prefilter_rejects",
        /// Rule 1: witness bit probes performed.
        Rule1WitnessProbes => "rule1.witness_probes",
        /// Rule 1: candidates rejected by the witness probe.
        Rule1WitnessRejects => "rule1.witness_rejects",
        /// Rule 1: full closed-neighbourhood subset scans.
        Rule1SubsetScans => "rule1.subset_scans",
        /// Rule 1: vertices unmarked.
        Rule1Unmarked => "rule1.unmarked",
        /// Rule 2: marked vertices with enough candidates to form a pair.
        Rule2Vertices => "rule2.vertices",
        /// Rule 2: candidate neighbours collected across those vertices.
        Rule2Candidates => "rule2.candidates",
        /// Rule 2: candidate pairs probed.
        Rule2PairsProbed => "rule2.pairs_probed",
        /// Rule 2: pairs rejected by the residual-witness probe.
        Rule2WitnessRejects => "rule2.witness_rejects",
        /// Rule 2: full pair-coverage word scans.
        Rule2CoverageScans => "rule2.coverage_scans",
        /// Rule 2: vertices unmarked.
        Rule2Unmarked => "rule2.unmarked",
        /// Full CDS computations through a workspace.
        WorkspaceComputes => "workspace.computes",
        /// Neighbour-bitmap rebuilds.
        WorkspaceBitmapRebuilds => "workspace.bitmap_rebuilds",
        /// Priority-key rebuilds.
        WorkspaceKeyRebuilds => "workspace.key_rebuilds",
        /// (Rule 1; Rule 2) rounds executed, summed over computations.
        WorkspaceRounds => "workspace.rounds",
        /// CDS verifications performed.
        VerifyRuns => "verify.runs",
        /// CDS verifications that reported a violation.
        VerifyFailures => "verify.failures",
        /// Simulator update intervals completed.
        SimIntervals => "sim.intervals",
        /// Hosts whose gateway role flipped versus the previous interval.
        SimGatewayChurn => "sim.gateway_churn",
        /// Host deaths observed by the simulator.
        SimDeaths => "sim.deaths",
        /// Topology (CSR) rebuilds in the simulator.
        SimTopologyRebuilds => "sim.topology_rebuilds",
        /// Distributed protocol: hello messages sent.
        DistHelloMessages => "dist.hello_messages",
        /// Distributed protocol: marker messages sent.
        DistMarkerMessages => "dist.marker_messages",
        /// Distributed protocol executions.
        DistRuns => "dist.runs",
        /// Serve: requests fully read and dispatched to a handler.
        ServeRequests => "serve.requests",
        /// Serve: result-cache hits.
        ServeCacheHits => "serve.cache_hits",
        /// Serve: result-cache misses (request computed fresh).
        ServeCacheMisses => "serve.cache_misses",
        /// Serve: result-cache entries evicted to make room.
        ServeCacheEvictions => "serve.cache_evictions",
        /// Serve: connections rejected by backpressure (queue full).
        ServeRejected => "serve.rejected",
        /// Serve: protocol errors (bad version/kind/frame/body).
        ServeProtocolErrors => "serve.protocol_errors",
        /// Serve: requests that blew their deadline before a reply.
        ServeDeadlineExceeded => "serve.deadline_exceeded",
        /// Shard: full sharded CDS computations.
        ShardComputes => "shard.computes",
        /// Shard: tiles solved, summed over computations.
        ShardTiles => "shard.tiles",
        /// Shard: owned nodes across all tiles (equals n per computation).
        ShardOwnedNodes => "shard.owned_nodes",
        /// Shard: halo (non-owned) nodes replicated into tiles.
        ShardHaloNodes => "shard.halo_nodes",
        /// Shard: undirected edges crossing a tile-ownership boundary.
        ShardCrossTileEdges => "shard.cross_tile_edges",
        /// Shard: tiles a worker took from another worker's queue.
        ShardTilesStolen => "shard.tiles_stolen",
        /// Shard: nanoseconds workers spent solving tiles (summed CPU
        /// time across workers, not wall time).
        ShardBusyNs => "shard.busy_ns",
        /// Churn engine: refreshes run.
        ChurnRefreshes => "churn.refreshes",
        /// Churn engine: tiles re-solved across refreshes.
        ChurnTilesResolved => "churn.tiles_resolved",
        /// Churn engine: gateway verdict flips across refreshes.
        ChurnGatewayFlips => "churn.gateway_flips",
        /// Serve: push frames delivered to subscribers.
        ServePushFrames => "serve.push_frames",
        /// Serve: push frames dropped because a subscriber queue was full.
        ServePushDropped => "serve.push_dropped",
        /// Serve: subscribers disconnected for lagging behind the stream.
        ServeSubscribersLagged => "serve.subscribers_lagged",
        /// Trace: spans recorded into the span ring.
        TraceSpans => "trace.spans",
        /// Trace: ring slots overwritten before being drained.
        TraceSpansDropped => "trace.spans_dropped",
        /// Dataplane: packets admitted at the ingress node.
        DpPackets => "dp.packets",
        /// Dataplane: per-hop forward operations (aggregate transmissions
        /// across all relay nodes — the "packets/sec forwarded" number).
        DpForwarded => "dp.forwarded",
        /// Dataplane: packets delivered at the egress node.
        DpDelivered => "dp.delivered",
        /// Dataplane: packets terminally dropped (unroutable).
        DpDropped => "dp.dropped",
        /// Dataplane: packets NACKed on a stale route (dead next hop).
        DpNacks => "dp.nacks",
        /// Dataplane: NACKed packets re-injected after a table rebuild.
        DpRetransmits => "dp.retransmits",
        /// Dataplane: source routes assembled (backbone lookups).
        DpRouteBuilds => "dp.route_builds",
        /// Dataplane: flood transmissions (blind + gateway relays).
        DpFloodTransmissions => "dp.flood_transmissions",
        /// Dataplane: duplicate flood receptions suppressed.
        DpFloodDuplicates => "dp.flood_duplicates",
        /// Dataplane: packets forwarded into a dead node. The NACK path
        /// makes this structurally impossible; benches assert it stays 0.
        DpMisroutes => "dp.misroutes",
        /// Cluster: requests routed to a backend by the coordinator.
        ClusterRouted => "cluster.routed",
        /// Cluster: requests that failed over to another backend after the
        /// ring owner died under them.
        ClusterFailedOver => "cluster.failed_over",
        /// Cluster: requests rejected because no healthy backend remained.
        ClusterNoBackend => "cluster.no_backend",
        /// Cluster: backend health transitions (up→down and down→up).
        ClusterHealthFlips => "cluster.health_flips",
        /// Cluster: push frames relayed to subscribed clients.
        ClusterPushRelayed => "cluster.push_relayed",
    }
}

metric_enum! {
    /// Timed phases. Each records a call count, a total, and a
    /// power-of-two latency histogram.
    pub enum Phase / PHASE_NAMES / NUM_PHASES {
        /// The marking scan.
        Marking => "marking",
        /// Neighbour-bitmap rebuild.
        BitmapRebuild => "bitmap_rebuild",
        /// Priority-key rebuild.
        KeyRebuild => "key_rebuild",
        /// One Rule 1 pass.
        Rule1 => "rule1",
        /// One Rule 2 pass.
        Rule2 => "rule2",
        /// CDS verification.
        Verify => "verify",
        /// Simulator: mobility / placement step.
        SimPlacement => "sim.placement",
        /// Simulator: unit-disk CSR (+ adjacency view) rebuild.
        SimCsrRebuild => "sim.csr_rebuild",
        /// Simulator: full gateway-set computation.
        SimCds => "sim.cds",
        /// Simulator: battery drain + death collection.
        SimDrain => "sim.drain",
        /// Serve: request frame decode + cache keying.
        ServeDecode => "serve.decode",
        /// Serve: CDS computation on a cache miss.
        ServeCompute => "serve.compute",
        /// Serve: response encoding (including cached-bytes copy).
        ServeEncode => "serve.encode",
        /// Shard: tile partition of the point set.
        ShardPartition => "shard.partition",
        /// Shard: halo gathering + per-tile subgraph extraction.
        ShardHaloBuild => "shard.halo_build",
        /// Shard: per-tile marking + rule passes (summed across workers).
        ShardSolve => "shard.solve",
        /// Shard: ownership-filtered merge into the output masks.
        ShardMerge => "shard.merge",
        /// Churn engine: one incremental refresh (dirty-tile re-solve).
        ChurnRefresh => "churn.refresh",
        /// Dataplane: one pump sweep over the node graph.
        DpPump => "dp.pump",
        /// Dataplane: backbone route-table (re)build + source-route
        /// assembly.
        DpRouteBuild => "dp.route_build",
        /// Dataplane: one broadcast flood.
        DpFlood => "dp.flood",
        /// Cluster: request classification + ring lookup.
        ClusterRoute => "cluster.route",
        /// Cluster: backend round trip (forward request, await response).
        ClusterRelay => "cluster.relay",
    }
}

/// Histogram bucket count. Bucket `i < NUM_BUCKETS - 1` holds samples with
/// `elapsed_ns < 128 << i` (128 ns … ~8.6 s); the last bucket is overflow.
pub const NUM_BUCKETS: usize = 27;

/// Upper bound (exclusive, in ns) of bucket `i`; `None` for the overflow
/// bucket.
pub fn bucket_bound_ns(i: usize) -> Option<u64> {
    (i + 1 < NUM_BUCKETS).then(|| 128u64 << i)
}

/// Maximum number of per-thread slots tracked (shard tile counts and the
/// trace ring's thread ids). Threads beyond this many share the last
/// slots (sums stay exact).
pub const NUM_PAR_SLOTS: usize = 64;

/// Whether the recording runtime is compiled in. `const`, so
/// `if pacds_obs::enabled() { ... }` blocks vanish from disabled builds.
#[inline(always)]
pub const fn enabled() -> bool {
    cfg!(feature = "enabled")
}

#[cfg(feature = "enabled")]
mod storage {
    use super::*;

    pub static COUNTERS: [AtomicU64; NUM_COUNTERS] =
        [const { AtomicU64::new(0) }; NUM_COUNTERS];
    pub static PHASE_COUNT: [AtomicU64; NUM_PHASES] =
        [const { AtomicU64::new(0) }; NUM_PHASES];
    pub static PHASE_TOTAL_NS: [AtomicU64; NUM_PHASES] =
        [const { AtomicU64::new(0) }; NUM_PHASES];
    #[allow(clippy::declare_interior_mutable_const)]
    pub static PHASE_HIST: [[AtomicU64; NUM_BUCKETS]; NUM_PHASES] =
        [const { [const { AtomicU64::new(0) }; NUM_BUCKETS] }; NUM_PHASES];
    pub static SHARD_TILES: [AtomicU64; NUM_PAR_SLOTS] =
        [const { AtomicU64::new(0) }; NUM_PAR_SLOTS];

    /// Monotone id source for per-thread slots.
    pub static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

    thread_local! {
        /// This thread's slot in [`SHARD_TILES`], assigned on first use.
        /// Shard pool workers live as long as their engine, so each keeps
        /// one slot and the table reads as per-thread totals.
        pub static PAR_SLOT: usize = NEXT_SLOT
            .fetch_add(1, Ordering::Relaxed)
            .min(NUM_PAR_SLOTS - 1);
    }
}

/// Adds `n` to `counter`.
#[inline(always)]
pub fn add(counter: Counter, n: u64) {
    #[cfg(feature = "enabled")]
    storage::COUNTERS[counter as usize].fetch_add(n, Ordering::Relaxed);
    #[cfg(not(feature = "enabled"))]
    let _ = (counter, n);
}

/// Reads a counter's current value (always 0 when disabled).
#[inline]
pub fn counter_value(counter: Counter) -> u64 {
    #[cfg(feature = "enabled")]
    return storage::COUNTERS[counter as usize].load(Ordering::Relaxed);
    #[cfg(not(feature = "enabled"))]
    {
        let _ = counter;
        0
    }
}

/// Records one sample of `ns` nanoseconds under `phase`.
#[inline]
pub fn record_phase_ns(phase: Phase, ns: u64) {
    #[cfg(feature = "enabled")]
    {
        let i = phase as usize;
        storage::PHASE_COUNT[i].fetch_add(1, Ordering::Relaxed);
        storage::PHASE_TOTAL_NS[i].fetch_add(ns, Ordering::Relaxed);
        let mut b = 0usize;
        while b + 1 < NUM_BUCKETS && ns >= (128u64 << b) {
            b += 1;
        }
        storage::PHASE_HIST[i][b].fetch_add(1, Ordering::Relaxed);
    }
    #[cfg(not(feature = "enabled"))]
    let _ = (phase, ns);
}

/// Adds `n` sharded tiles solved to the calling thread's slot (and to
/// [`Counter::ShardTiles`] via the engine's own totals, not here) —
/// the work-distribution evidence CI uses where wall-clock scaling
/// cannot be trusted: on a 2-thread run, two slots must be non-zero.
#[inline]
pub fn shard_thread_tiles_tick(n: u64) {
    #[cfg(feature = "enabled")]
    storage::PAR_SLOT.with(|&slot| {
        storage::SHARD_TILES[slot].fetch_add(n, Ordering::Relaxed);
    });
    #[cfg(not(feature = "enabled"))]
    let _ = n;
}

/// Per-thread sharded-tiles-solved totals (empty when disabled). Slots
/// are assigned in first-use order and trailing zero slots are trimmed.
pub fn shard_tiles_per_thread() -> Vec<u64> {
    #[cfg(feature = "enabled")]
    return trimmed(&storage::SHARD_TILES);
    #[cfg(not(feature = "enabled"))]
    Vec::new()
}

#[cfg(feature = "enabled")]
fn trimmed(slots: &[AtomicU64; NUM_PAR_SLOTS]) -> Vec<u64> {
    let mut v: Vec<u64> = slots.iter().map(|s| s.load(Ordering::Relaxed)).collect();
    while v.last() == Some(&0) {
        v.pop();
    }
    v
}

/// Scope guard started by [`phase_timer`]: records the elapsed time under
/// its phase when dropped. Zero-sized (and `Instant`-free) when disabled.
#[must_use = "the timer records on drop; binding it to _ drops immediately"]
pub struct PhaseTimer {
    #[cfg(feature = "enabled")]
    inner: Option<(Phase, Instant)>,
}

/// Starts timing `phase`; the returned guard records on drop.
#[inline(always)]
pub fn phase_timer(phase: Phase) -> PhaseTimer {
    #[cfg(feature = "enabled")]
    return PhaseTimer {
        inner: Some((phase, Instant::now())),
    };
    #[cfg(not(feature = "enabled"))]
    {
        let _ = phase;
        PhaseTimer {}
    }
}

impl Drop for PhaseTimer {
    #[inline]
    fn drop(&mut self) {
        #[cfg(feature = "enabled")]
        if let Some((phase, start)) = self.inner.take() {
            record_phase_ns(phase, start.elapsed().as_nanos() as u64);
        }
    }
}

/// A stack-local accumulator for hot loops: bump per element, flush once
/// per pass. A plain `u64` when enabled, a zero-sized no-op when off —
/// either way the inner loop never touches an atomic.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    #[cfg(feature = "enabled")]
    n: u64,
}

impl Tally {
    /// A zeroed tally.
    #[inline(always)]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    #[inline(always)]
    pub fn bump(&mut self) {
        #[cfg(feature = "enabled")]
        {
            self.n += 1;
        }
    }

    /// Adds `n`.
    #[inline(always)]
    pub fn add(&mut self, n: u64) {
        #[cfg(feature = "enabled")]
        {
            self.n += n;
        }
        #[cfg(not(feature = "enabled"))]
        let _ = n;
    }

    /// Current value (always 0 when disabled).
    #[inline(always)]
    pub fn get(&self) -> u64 {
        #[cfg(feature = "enabled")]
        return self.n;
        #[cfg(not(feature = "enabled"))]
        0
    }

    /// Flushes the accumulated value into `counter` and re-zeroes.
    #[inline(always)]
    pub fn flush(&mut self, counter: Counter) {
        #[cfg(feature = "enabled")]
        {
            if self.n > 0 {
                add(counter, self.n);
                self.n = 0;
            }
        }
        #[cfg(not(feature = "enabled"))]
        let _ = counter;
    }
}

/// Zeroes every counter, phase, histogram, and parallel-work slot.
///
/// Thread slots keep their assignment (slots are identities, not data).
pub fn reset() {
    #[cfg(feature = "enabled")]
    {
        for c in &storage::COUNTERS {
            c.store(0, Ordering::Relaxed);
        }
        for p in 0..NUM_PHASES {
            storage::PHASE_COUNT[p].store(0, Ordering::Relaxed);
            storage::PHASE_TOTAL_NS[p].store(0, Ordering::Relaxed);
            for b in &storage::PHASE_HIST[p] {
                b.store(0, Ordering::Relaxed);
            }
        }
        for s in &storage::SHARD_TILES {
            s.store(0, Ordering::Relaxed);
        }
    }
    crate::trace::reset_tracing();
}

/// The calling thread's per-thread slot id (shared with the trace ring's
/// `thread` field).
#[cfg(feature = "enabled")]
#[cfg_attr(not(feature = "trace"), allow(dead_code))]
pub(crate) fn par_slot() -> usize {
    storage::PAR_SLOT.with(|&slot| slot)
}

#[cfg(feature = "enabled")]
pub(crate) fn phase_raw(i: usize) -> (u64, u64, Vec<u64>) {
    (
        storage::PHASE_COUNT[i].load(Ordering::Relaxed),
        storage::PHASE_TOTAL_NS[i].load(Ordering::Relaxed),
        storage::PHASE_HIST[i]
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The storage is global; tests that reset or assert exact values must
    /// not interleave.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn labels_are_unique_and_nonempty() {
        for names in [COUNTER_NAMES, PHASE_NAMES] {
            for (i, a) in names.iter().enumerate() {
                assert!(!a.is_empty());
                for b in &names[i + 1..] {
                    assert_ne!(a, b);
                }
            }
        }
    }

    #[test]
    fn bucket_bounds_are_monotone() {
        let mut prev = 0;
        for i in 0..NUM_BUCKETS - 1 {
            let b = bucket_bound_ns(i).unwrap();
            assert!(b > prev);
            prev = b;
        }
        assert_eq!(bucket_bound_ns(NUM_BUCKETS - 1), None);
    }

    #[test]
    fn tally_flush_and_counters_match_mode() {
        let _guard = serial();
        reset();
        let mut t = Tally::new();
        t.bump();
        t.add(4);
        assert_eq!(t.get(), if enabled() { 5 } else { 0 });
        t.flush(Counter::Rule1Candidates);
        assert_eq!(t.get(), 0);
        assert_eq!(
            counter_value(Counter::Rule1Candidates),
            if enabled() { 5 } else { 0 }
        );
        reset();
        assert_eq!(counter_value(Counter::Rule1Candidates), 0);
    }

    #[test]
    fn phase_timer_records_iff_enabled() {
        let _guard = serial();
        reset();
        {
            let _t = phase_timer(Phase::Marking);
            std::hint::black_box(0u64);
        }
        record_phase_ns(Phase::Marking, 1_000);
        let snap = crate::Snapshot::capture();
        let marking = snap.phase("marking");
        if enabled() {
            let p = marking.expect("phase present when enabled");
            assert!(p.count >= 2);
            assert!(p.total_ns >= 1_000);
            assert_eq!(p.buckets.iter().sum::<u64>(), p.count);
        } else {
            assert!(marking.is_none() || marking.unwrap().count == 0);
        }
        reset();
    }

    #[test]
    fn histogram_edges_boundaries_zero_and_saturation() {
        let _guard = serial();
        reset();
        // Zero lands in the first bucket; a value exactly on a bucket's
        // upper bound (128 << i, exclusive) lands in the *next* bucket;
        // anything past the last finite bound saturates into the overflow
        // bucket.
        record_phase_ns(Phase::Verify, 0);
        record_phase_ns(Phase::Verify, 127);
        record_phase_ns(Phase::Verify, 128);
        record_phase_ns(Phase::Verify, (128u64 << 5) - 1);
        record_phase_ns(Phase::Verify, 128u64 << 5);
        record_phase_ns(Phase::Verify, 128u64 << (NUM_BUCKETS - 2));
        record_phase_ns(Phase::Verify, u64::MAX);
        if !enabled() {
            assert!(crate::Snapshot::capture().phase("verify").is_none());
        }
        #[cfg(feature = "enabled")]
        {
            let (count, _total, hist) = phase_raw(Phase::Verify as usize);
            assert_eq!(count, 7);
            assert_eq!(hist[0], 2, "0 and 127 share bucket 0");
            assert_eq!(hist[1], 1, "exact 128 spills into bucket 1");
            assert_eq!(hist[5], 1, "(128<<5)-1 stays in bucket 5");
            assert_eq!(hist[6], 1, "exact 128<<5 spills into bucket 6");
            assert_eq!(hist[NUM_BUCKETS - 1], 2, "last bound and u64::MAX overflow");
            assert_eq!(hist.iter().sum::<u64>(), count);

            // The snapshot round-trips those exact buckets bit-identically.
            let snap = crate::Snapshot::capture();
            let back: crate::Snapshot =
                serde_json::from_str(&snap.to_json_line()).expect("snapshot parses");
            assert_eq!(back, snap);
            let p = back.phase("verify").expect("verify phase present");
            assert_eq!(p.count, 7);
            assert_eq!(p.buckets[0], 2);
            assert_eq!(p.buckets[p.buckets.len() - 1], 2);
            reset();
        }
    }
}
