//! Snapshotting and exporters.
//!
//! A [`Snapshot`] is a point-in-time, owned copy of every metric —
//! the only allocating path in the crate, intended for run boundaries.
//! Two wire formats are provided:
//!
//! * **JSON lines** ([`write_jsonl`]) — one self-describing object per
//!   line, the same framing as `pacds-sim`'s `TraceRecorder`, so metric
//!   snapshots and interval traces can interleave in one stream;
//! * **Prometheus text exposition** ([`write_prometheus`]) — counters as
//!   `pacds_*_total`, phases as native histograms with cumulative `le`
//!   buckets plus `_sum`/`_count`.

use crate::recorder::{
    bucket_bound_ns, counter_value, enabled, shard_tiles_per_thread,
    Counter, COUNTER_NAMES, NUM_BUCKETS, NUM_COUNTERS, NUM_PHASES,
};
use serde::{Deserialize, Serialize};
use std::io::{self, Write};

/// One counter's value, by wire label.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterEntry {
    /// Dotted wire label, e.g. `rule1.candidates`.
    pub name: String,
    /// Monotonic count since process start (or the last `reset`).
    pub value: u64,
}

/// One phase's aggregated timings.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseSnapshot {
    /// Dotted wire label, e.g. `sim.cds`.
    pub name: String,
    /// Samples recorded.
    pub count: u64,
    /// Sum of sample durations, nanoseconds.
    pub total_ns: u64,
    /// Per-bucket sample counts (non-cumulative); bucket `i` holds samples
    /// `< 128 << i` ns, last bucket is overflow. Trailing zeros trimmed.
    pub buckets: Vec<u64>,
}

impl PhaseSnapshot {
    /// Mean sample duration in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

/// A point-in-time copy of all metrics, serialisable both ways (the
/// JSONL round-trip is pinned by tests). Entries keep declaration order,
/// zero-valued counters and empty phases are omitted.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Snapshot {
    /// Wire-format marker (`"obs_snapshot"`) so snapshot lines are
    /// self-describing when interleaved with other JSONL streams.
    pub kind: String,
    /// Whether the producing build had the recording runtime compiled in.
    pub enabled: bool,
    /// Non-zero counters.
    pub counters: Vec<CounterEntry>,
    /// Non-empty phase timings.
    pub phases: Vec<PhaseSnapshot>,
    /// Per-thread sharded tiles solved (slot-indexed, first-use order);
    /// the work-distribution evidence for parallel shard runs. Absent in
    /// older snapshot lines, so deserialisation defaults it to empty.
    #[serde(default)]
    pub shard_thread_tiles: Vec<u64>,
}

/// The `kind` tag every snapshot line carries.
pub const SNAPSHOT_KIND: &str = "obs_snapshot";

impl Snapshot {
    /// Captures the current metric state. In a disabled build this returns
    /// an empty snapshot with `enabled: false`.
    pub fn capture() -> Self {
        let mut counters = Vec::new();
        #[cfg_attr(not(feature = "enabled"), allow(unused_mut))]
        let mut phases: Vec<PhaseSnapshot> = Vec::new();
        if enabled() {
            for i in 0..NUM_COUNTERS {
                let v = counter_value(ALL_COUNTERS[i]);
                if v > 0 {
                    counters.push(CounterEntry {
                        name: COUNTER_NAMES[i].to_string(),
                        value: v,
                    });
                }
            }
            #[cfg(feature = "enabled")]
            for i in 0..NUM_PHASES {
                let (count, total_ns, mut buckets) = crate::recorder::phase_raw(i);
                if count == 0 {
                    continue;
                }
                while buckets.last() == Some(&0) {
                    buckets.pop();
                }
                phases.push(PhaseSnapshot {
                    name: crate::recorder::PHASE_NAMES[i].to_string(),
                    count,
                    total_ns,
                    buckets,
                });
            }
        }
        let _ = NUM_PHASES;
        Snapshot {
            kind: SNAPSHOT_KIND.to_string(),
            enabled: enabled(),
            counters,
            phases,
            shard_thread_tiles: shard_tiles_per_thread(),
        }
    }

    /// An empty snapshot (what a disabled build captures).
    pub fn empty() -> Self {
        Snapshot {
            kind: SNAPSHOT_KIND.to_string(),
            enabled: false,
            counters: Vec::new(),
            phases: Vec::new(),
            shard_thread_tiles: Vec::new(),
        }
    }

    /// A counter's value by label (0 when absent).
    pub fn counter(&self, label: &str) -> u64 {
        self.counters
            .iter()
            .find(|c| c.name == label)
            .map_or(0, |c| c.value)
    }

    /// A phase's timings by label.
    pub fn phase(&self, label: &str) -> Option<&PhaseSnapshot> {
        self.phases.iter().find(|p| p.name == label)
    }

    /// Serialises to a single JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        serde_json::to_string(self).expect("snapshot serialises")
    }
}

impl Default for Snapshot {
    fn default() -> Self {
        Snapshot::empty()
    }
}

/// Dense table of counters (index = discriminant); pinned by a test
/// against the enum's own labels.
const ALL_COUNTERS: [Counter; NUM_COUNTERS] = {
    use Counter::*;
    [
        MarkingScanned,
        MarkingMarked,
        Rule1Candidates,
        Rule1PrefilterRejects,
        Rule1WitnessProbes,
        Rule1WitnessRejects,
        Rule1SubsetScans,
        Rule1Unmarked,
        Rule2Vertices,
        Rule2Candidates,
        Rule2PairsProbed,
        Rule2WitnessRejects,
        Rule2CoverageScans,
        Rule2Unmarked,
        WorkspaceComputes,
        WorkspaceBitmapRebuilds,
        WorkspaceKeyRebuilds,
        WorkspaceRounds,
        VerifyRuns,
        VerifyFailures,
        SimIntervals,
        SimGatewayChurn,
        SimDeaths,
        SimTopologyRebuilds,
        DistHelloMessages,
        DistMarkerMessages,
        DistRuns,
        ServeRequests,
        ServeCacheHits,
        ServeCacheMisses,
        ServeCacheEvictions,
        ServeRejected,
        ServeProtocolErrors,
        ServeDeadlineExceeded,
        ShardComputes,
        ShardTiles,
        ShardOwnedNodes,
        ShardHaloNodes,
        ShardCrossTileEdges,
        ShardTilesStolen,
        ShardBusyNs,
        ChurnRefreshes,
        ChurnTilesResolved,
        ChurnGatewayFlips,
        ServePushFrames,
        ServePushDropped,
        ServeSubscribersLagged,
        TraceSpans,
        TraceSpansDropped,
        DpPackets,
        DpForwarded,
        DpDelivered,
        DpDropped,
        DpNacks,
        DpRetransmits,
        DpRouteBuilds,
        DpFloodTransmissions,
        DpFloodDuplicates,
        DpMisroutes,
        ClusterRouted,
        ClusterFailedOver,
        ClusterNoBackend,
        ClusterHealthFlips,
        ClusterPushRelayed,
    ]
};

/// Appends `snap` to `w` as one JSON line (TraceRecorder-compatible
/// framing: one object per line, `\n`-terminated).
pub fn write_jsonl<W: Write>(snap: &Snapshot, w: &mut W) -> io::Result<()> {
    w.write_all(snap.to_json_line().as_bytes())?;
    w.write_all(b"\n")
}

/// Renders `snap` in the Prometheus text exposition format.
///
/// Counters become `pacds_<label>_total` (dots mapped to underscores);
/// phases become the histogram family `pacds_phase_duration_ns` with
/// cumulative `le` buckets, `_sum` and `_count`; per-thread shard tile
/// counts become `pacds_shard_thread_tiles_total{thread="i"}`.
pub fn write_prometheus<W: Write>(snap: &Snapshot, w: &mut W) -> io::Result<()> {
    for c in &snap.counters {
        let name = c.name.replace('.', "_");
        writeln!(w, "# TYPE pacds_{name}_total counter")?;
        writeln!(w, "pacds_{name}_total {}", c.value)?;
    }
    if !snap.phases.is_empty() {
        writeln!(w, "# TYPE pacds_phase_duration_ns histogram")?;
        for p in &snap.phases {
            let label = &p.name;
            let mut cumulative = 0u64;
            for (i, &b) in p.buckets.iter().enumerate() {
                cumulative += b;
                let le = match bucket_bound_ns(i) {
                    Some(bound) => bound.to_string(),
                    None => "+Inf".to_string(),
                };
                writeln!(
                    w,
                    "pacds_phase_duration_ns_bucket{{phase=\"{label}\",le=\"{le}\"}} {cumulative}"
                )?;
            }
            if p.buckets.len() < NUM_BUCKETS {
                writeln!(
                    w,
                    "pacds_phase_duration_ns_bucket{{phase=\"{label}\",le=\"+Inf\"}} {cumulative}"
                )?;
            }
            writeln!(w, "pacds_phase_duration_ns_sum{{phase=\"{label}\"}} {}", p.total_ns)?;
            writeln!(w, "pacds_phase_duration_ns_count{{phase=\"{label}\"}} {}", p.count)?;
        }
    }
    for (i, tiles) in snap.shard_thread_tiles.iter().enumerate() {
        if i == 0 {
            writeln!(w, "# TYPE pacds_shard_thread_tiles_total counter")?;
        }
        writeln!(w, "pacds_shard_thread_tiles_total{{thread=\"{i}\"}} {tiles}")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_table_matches_enum_order() {
        for (i, c) in ALL_COUNTERS.iter().enumerate() {
            assert_eq!(*c as usize, i, "ALL_COUNTERS[{i}] out of order");
            assert_eq!(c.label(), COUNTER_NAMES[i]);
        }
    }

    #[test]
    fn snapshot_round_trips_through_jsonl() {
        let mut snap = Snapshot::empty();
        snap.enabled = true;
        snap.counters.push(CounterEntry {
            name: "rule1.candidates".into(),
            value: 42,
        });
        snap.phases.push(PhaseSnapshot {
            name: "rule1".into(),
            count: 3,
            total_ns: 9_000,
            buckets: vec![0, 1, 2],
        });
        snap.shard_thread_tiles = vec![4, 4];
        let mut buf = Vec::new();
        write_jsonl(&snap, &mut buf).unwrap();
        let line = String::from_utf8(buf).unwrap();
        assert!(line.ends_with('\n'));
        let back: Snapshot = serde_json::from_str(line.trim_end()).unwrap();
        assert_eq!(back, snap);
        // Older producers omit the shard tile table (it must default) and
        // may still carry the retired `par_thread_work` table (ignored).
        let old: Snapshot =
            serde_json::from_str(r#"{"kind":"obs_snapshot","enabled":false,"counters":[],"phases":[],"par_thread_work":[]}"#)
                .unwrap();
        assert!(old.shard_thread_tiles.is_empty());
        assert_eq!(back.counter("rule1.candidates"), 42);
        assert_eq!(back.counter("rule1.unmarked"), 0);
        assert_eq!(back.phase("rule1").unwrap().count, 3);
        assert!(back.phase("rule2").is_none());
    }

    #[test]
    fn captured_snapshot_round_trips() {
        crate::recorder::add(Counter::MarkingScanned, 5);
        crate::recorder::record_phase_ns(crate::Phase::Marking, 640);
        let snap = Snapshot::capture();
        let back: Snapshot = serde_json::from_str(&snap.to_json_line()).unwrap();
        assert_eq!(back, snap);
        assert_eq!(snap.kind, SNAPSHOT_KIND);
        assert_eq!(snap.enabled, enabled());
        if enabled() {
            assert!(snap.counter("marking.vertices_scanned") >= 5);
            assert!(snap.phase("marking").unwrap().count >= 1);
        } else {
            assert!(snap.counters.is_empty());
            assert!(snap.phases.is_empty());
        }
    }

    #[test]
    fn prometheus_exposition_shape() {
        let mut snap = Snapshot::empty();
        snap.counters.push(CounterEntry {
            name: "rule2.unmarked".into(),
            value: 9,
        });
        snap.phases.push(PhaseSnapshot {
            name: "sim.cds".into(),
            count: 2,
            total_ns: 300,
            buckets: vec![1, 1],
        });
        snap.shard_thread_tiles = vec![3, 2];
        let mut buf = Vec::new();
        write_prometheus(&snap, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("pacds_shard_thread_tiles_total{thread=\"0\"} 3"));
        assert!(text.contains("pacds_shard_thread_tiles_total{thread=\"1\"} 2"));
        assert!(text.contains("pacds_rule2_unmarked_total 9"));
        assert!(text.contains("pacds_phase_duration_ns_bucket{phase=\"sim.cds\",le=\"128\"} 1"));
        assert!(text.contains("pacds_phase_duration_ns_bucket{phase=\"sim.cds\",le=\"256\"} 2"));
        assert!(text.contains("pacds_phase_duration_ns_bucket{phase=\"sim.cds\",le=\"+Inf\"} 2"));
        assert!(text.contains("pacds_phase_duration_ns_sum{phase=\"sim.cds\"} 300"));
        assert!(text.contains("pacds_phase_duration_ns_count{phase=\"sim.cds\"} 2"));
    }

    #[test]
    fn mean_ns_handles_empty() {
        let p = PhaseSnapshot {
            name: "x".into(),
            count: 0,
            total_ns: 0,
            buckets: vec![],
        };
        assert_eq!(p.mean_ns(), 0.0);
    }
}
