//! The metric registry and the result line.
//!
//! Every workload reports every end-to-end metric (untraced run) and every
//! per-layer metric (traced run). The end-to-end metrics are slots each
//! workload fills with its own operation; `README.md` maps each slot to the
//! workload-specific name (`sim.intervals_per_s`, `churn.step_ms.p50`,
//! `wire.warm_us.p50`, ...) that the run also prints on its own line. A
//! per-layer metric of a layer the workload bypasses reads 0.

use crate::stats::{residual_pct, Tail};
use std::collections::HashMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s"),
    m("peak_rss_mb", "MB"),
    m("ops_per_s", "1/s"),
    m("update_ms.p50", "ms"),
    m("update_ms.tail", "ms"),
    m("scratch_ms.p50", "ms"),
    m("response_ms.p50", "ms"),
];

pub const PER_LAYER: &[Metric] = &[
    // Every workload.
    m("trace.overhead_pct", "%"),
    m("addup.residual_pct", "%"),
    m("update.tail_q", "ratio"),
    m("update.tail_beyond", "count"),
    m("self_pct.sim", "%"),
    m("self_pct.graph", "%"),
    m("self_pct.core", "%"),
    m("self_pct.energy", "%"),
    m("self_pct.shard", "%"),
    m("self_pct.dataplane", "%"),
    m("self_pct.serve", "%"),
    m("self_pct.cluster", "%"),
    m("self_pct.transport", "%"),
    // paper-lifetime.
    m("sim.init_us.p50", "us"),
    m("sim.topology_us.p50", "us"),
    m("graph.connected_us.p50", "us"),
    m("core.cds_us.p50", "us"),
    m("core.verify_us.p50", "us"),
    m("energy.drain_us.p50", "us"),
    m("core.gateways_mean", "count"),
    m("sim.lifetime_mean", "count"),
    // churn-reroute.
    m("shard.open_ms", "ms"),
    m("dataplane.open_ms", "ms"),
    m("shard.apply_us.p50", "us"),
    m("shard.refresh_ms.p50", "ms"),
    m("shard.halo_ms", "ms"),
    m("shard.tile_solve_ms", "ms"),
    m("shard.scatter_ms", "ms"),
    m("shard.resolved_tiles_per_step", "count"),
    m("shard.resolved_frac", "ratio"),
    m("shard.flips_per_event", "count"),
    m("shard.scratch_partition_ms", "ms"),
    m("shard.scratch_halo_ms", "ms"),
    m("shard.scratch_solve_ms", "ms"),
    m("shard.scratch_merge_ms", "ms"),
    m("dataplane.wave_ms.p50", "ms"),
    m("dataplane.hops_per_s", "1/s"),
    m("dataplane.hops_per_packet", "count"),
    m("dataplane.kill_pump_ms", "ms"),
    m("dataplane.net_refresh_ms", "ms"),
    m("dataplane.install_ms", "ms"),
    m("dataplane.redeliver_ms", "ms"),
    m("dataplane.adjacency_ms", "ms"),
    m("dataplane.nacked_per_kill", "count"),
    m("dataplane.trees_built_per_reroute", "count"),
    // wire-mixed and wire-cluster.
    m("serve.handle_us.warm", "us"),
    m("serve.handle_us.cold", "us"),
    m("serve.handle_us.mutate", "us"),
    m("serve.handle_us.query", "us"),
    m("serve.transport_us.warm", "us"),
    m("serve.encode_us.warm", "us"),
    m("serve.decode_us.warm", "us"),
    m("wire.query_us.p50", "us"),
    m("serve.cache_hit_ratio", "ratio"),
    m("serve.cache_mb", "MB"),
    m("serve.mutate_resolved_frac", "ratio"),
    m("serve.open_graph_ms", "ms"),
    // wire-cluster only.
    m("cluster.relay_us.warm", "us"),
    m("cluster.max_backend_share", "ratio"),
];

/// Layers and the metric carrying each one's self-time share: the crates,
/// plus `transport`, the loopback socket round trips of the wire workloads.
const SELF_PCT: [(&str, &str); 9] = [
    ("sim", "self_pct.sim"),
    ("graph", "self_pct.graph"),
    ("core", "self_pct.core"),
    ("energy", "self_pct.energy"),
    ("shard", "self_pct.shard"),
    ("dataplane", "self_pct.dataplane"),
    ("serve", "self_pct.serve"),
    ("cluster", "self_pct.cluster"),
    ("transport", "self_pct.transport"),
];

/// Largest residual, in percent, at which an add-up check passes.
pub const ADDUP_TOLERANCE_PCT: f64 = 10.0;

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    values: HashMap<&'static str, f64>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Sets a registered metric.
    ///
    /// # Panics
    /// Panics on a name in neither registry (a benchmark bug).
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|m| m.name == name),
            "unregistered metric {name}"
        );
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Adds a human-readable `name = value unit` line.
    pub fn note(&mut self, name: &str, value: f64, unit: &str) {
        self.notes.push(format!("  {name} = {value:.4} {unit}"));
    }

    /// Records one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Adds a `name = value unit` line for a `.tail`, with the percentile
    /// and the samples it rests on; `scale` converts the samples to `unit`.
    pub fn note_tail(&mut self, name: &str, t: &Tail, scale: f64, unit: &str) {
        self.notes.push(format!(
            "  {name} = {:.4} {unit} (p{}, {} samples, {} beyond)",
            t.value * scale,
            100.0 * t.q,
            t.samples,
            t.beyond
        ));
    }

    /// Records an add-up check: `parts`, the sum of the per-layer parts of
    /// a blocking step, against `whole`, the step measured end to end.
    pub fn set_addup(
        &mut self,
        parts_label: &str,
        parts: f64,
        whole_label: &str,
        whole: f64,
        unit: &str,
    ) {
        let residual = residual_pct(parts, whole);
        self.set("addup.residual_pct", residual);
        let verdict = if residual <= ADDUP_TOLERANCE_PCT {
            "pass"
        } else {
            "FAIL"
        };
        self.notes.push(format!(
            "  add-up: {parts_label} {parts:.3} {unit} vs {whole_label} {whole:.3} {unit}, residual {residual:.2}% (tolerance {ADDUP_TOLERANCE_PCT}%): {verdict}"
        ));
    }

    /// Fills the self-time shares from a traced run's spans.
    pub fn set_self_pct(&mut self, tr: &crate::trace::Tracer) {
        let by = tr.self_ns_by_layer();
        let ns = |layer: &str| by.get(layer).copied().unwrap_or(0);
        let total: u64 = SELF_PCT.iter().map(|(layer, _)| ns(layer)).sum();
        for (layer, name) in SELF_PCT {
            let pct = if total == 0 {
                0.0
            } else {
                100.0 * ns(layer) as f64 / total as f64
            };
            self.set(name, pct);
        }
    }

    /// Records the `.tail` percentile an untraced run uses and the samples
    /// its guaranteed `floor` leaves beyond it.
    pub fn set_tail_floor(&mut self, floor: usize) {
        let q = crate::stats::tail_quantile(floor);
        self.set("update.tail_q", q);
        self.set("update.tail_beyond", crate::stats::beyond(floor, q) as f64);
    }

    /// The result line: every end-to-end metric (`trace == false`) or every
    /// per-layer metric (`trace == true`). An end-to-end metric must have
    /// been set and be positive; an unset per-layer metric reads 0.
    pub fn result_json(&self, trace: bool) -> Result<String, String> {
        let list = if trace { PER_LAYER } else { END_TO_END };
        let mut parts = Vec::with_capacity(list.len());
        for m in list {
            let v = match self.values.get(m.name) {
                Some(&v) => v,
                None if trace => 0.0,
                None => return Err(format!("end-to-end metric {} was not measured", m.name)),
            };
            if !v.is_finite() || (!trace && v <= 0.0) {
                return Err(format!("metric {} measured {v}", m.name));
            }
            parts.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, v, m.unit
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
            parts.join(", ")
        ))
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
