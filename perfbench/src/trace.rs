//! In-memory span recording for the traced run.
//!
//! The benchmark wraps each call it makes into a layer's public API in a
//! span. A span carries its own id and its parent's (0 for a root: one
//! lifetime trial, churn step or wire request), the layer (the crate the
//! call enters) and the call's name. Spans stay in memory until the run
//! ends and are then written out as CSV. With tracing off every method is
//! a no-op apart from running the wrapped call.

use crate::stats::Samples;
use std::collections::HashMap;
use std::io::Write;
use std::time::{Duration, Instant};

/// Layer name of the benchmark's own correctness checks; excluded from the
/// crate layers' self time.
pub const CHECK: &str = "check";
/// Layer name of the benchmark's own probes, requests no user makes (a
/// warm frame sent straight to its owning backend); excluded likewise.
pub const PROBE: &str = "probe";

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub dur_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Turns recording on or off; the traced run alternates so traced and
    /// untraced work interleave and their difference is the overhead.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Opens a span under `parent` and returns its id (0 when off).
    pub fn open(&mut self, parent: u32, layer: &'static str, name: &'static str) -> u32 {
        if !self.on {
            return 0;
        }
        let id = self.spans.len() as u32 + 1;
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            layer,
            name,
            start_ns,
            dur_ns: 0,
        });
        id
    }

    pub fn close(&mut self, id: u32) {
        if id == 0 {
            return;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        let s = &mut self.spans[id as usize - 1];
        s.dur_ns = now - s.start_ns;
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        parent: u32,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(parent, layer, name);
        let out = f();
        self.close(id);
        out
    }

    /// Records a span measured by the caller (`start` .. `start + dur`).
    pub fn record(
        &mut self,
        parent: u32,
        layer: &'static str,
        name: &'static str,
        start: Instant,
        dur: Duration,
    ) {
        if !self.on {
            return;
        }
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            layer,
            name,
            start_ns: start.saturating_duration_since(self.epoch).as_nanos() as u64,
            dur_ns: dur.as_nanos() as u64,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn matching<'a>(&'a self, layer: &'a str, name: &'a str) -> impl Iterator<Item = &'a Span> {
        self.spans
            .iter()
            .filter(move |s| s.layer == layer && s.name == name)
    }

    /// Durations of the `layer`/`name` spans, in `unit_ns` units.
    pub fn durations(&self, layer: &str, name: &str, unit_ns: f64) -> Samples {
        let mut out = Samples::default();
        for s in self.matching(layer, name) {
            out.push(s.dur_ns as f64 / unit_ns);
        }
        out
    }

    /// Summed duration of the `layer`/`name` spans, in nanoseconds.
    pub fn total_ns(&self, layer: &str, name: &str) -> u64 {
        self.matching(layer, name).map(|s| s.dur_ns).sum()
    }

    /// Self time per layer (a span's duration minus its children's), in
    /// nanoseconds, over all spans.
    pub fn self_ns_by_layer(&self) -> HashMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len() + 1];
        for s in &self.spans {
            child_ns[s.parent as usize] += s.dur_ns;
        }
        let mut out: HashMap<&'static str, u64> = HashMap::new();
        for s in &self.spans {
            *out.entry(s.layer).or_default() += s.dur_ns.saturating_sub(child_ns[s.id as usize]);
        }
        out
    }

    /// Writes every span as one CSV line.
    pub fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id,parent,layer,name,start_ns,dur_ns")?;
        for s in &self.spans {
            writeln!(
                w,
                "{},{},{},{},{},{}",
                s.id, s.parent, s.layer, s.name, s.start_ns, s.dur_ns
            )?;
        }
        w.flush()
    }
}

/// Writes a traced run's spans to `perfbench/traces/<workload>.spans.csv`.
pub fn write_spans(tr: &Tracer, workload: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("traces")
        .join(format!("{workload}.spans.csv"));
    match tr.write_csv(&path) {
        Ok(()) => eprintln!("wrote {} spans to {}", tr.spans().len(), path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut tr = Tracer::new(true);
        let root = tr.open(0, "sim", "trial");
        tr.time(root, "core", "cds", || {
            std::thread::sleep(Duration::from_millis(2))
        });
        tr.close(root);
        let by = tr.self_ns_by_layer();
        assert!(by["core"] >= 2_000_000);
        assert!(by["sim"] < by["core"]);
        assert_eq!(tr.spans()[1].parent, root);
    }

    #[test]
    fn off_records_nothing() {
        let mut tr = Tracer::new(false);
        let id = tr.open(0, "sim", "trial");
        assert_eq!(tr.time(id, "core", "cds", || 7), 7);
        tr.close(id);
        assert!(tr.spans().is_empty());
    }
}
