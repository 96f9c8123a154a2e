//! Shrunk, replayable failure case files.
//!
//! When the harness finds a mismatch (or an implementation panics) it
//! does not panic on the full-size instance: it first greedily shrinks
//! the topology (dropping vertices, then edges, as long as the failure
//! survives), then writes a JSON case file that [`replay`] can re-execute
//! verbatim. The emit directory is `$PACDS_TESTKIT_CASE_DIR` when set (CI
//! uploads it as an artifact), `target/testkit-failures` otherwise.

use crate::harness::ImplKind;
use pacds_core::CdsConfig;
use pacds_graph::{mask_to_vec, vec_to_mask, Graph, NodeId};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// A self-contained, replayable record of one conformance mismatch.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CaseFile {
    /// Corpus case name the failure came from.
    pub case: String,
    /// [`ImplKind::name`] of the diverging implementation.
    pub implementation: String,
    /// The configuration under test.
    pub cfg: CdsConfig,
    /// Vertex count of the (shrunk) topology.
    pub n: usize,
    /// Edge list of the (shrunk) topology.
    pub edges: Vec<(NodeId, NodeId)>,
    /// Energy table of the (shrunk) instance.
    pub energy: Vec<u64>,
    /// Oracle gateway set (as a sorted vertex list).
    pub expected: Vec<NodeId>,
    /// What the implementation produced at capture time (empty when it
    /// panicked).
    pub got: Vec<NodeId>,
    /// The panic message, when the implementation panicked instead of
    /// returning a mask.
    pub panic: Option<String>,
}

impl CaseFile {
    /// Captures a mismatch at full size (pre-shrink).
    pub fn capture(
        case: &str,
        kind: ImplKind,
        g: &Graph,
        energy: &[u64],
        cfg: &CdsConfig,
        expected: &[bool],
        got: &[bool],
    ) -> Self {
        Self::capture_named(case, kind.name(), g, energy, cfg, expected, got)
    }

    /// [`capture`](Self::capture) for implementations outside [`ImplKind`]
    /// (e.g. the serving layer's wire round-trip), identified by a free
    /// label. [`replay`] cannot re-execute such cases, but the shrunk
    /// instance is still a complete repro recipe.
    pub fn capture_named(
        case: &str,
        implementation: &str,
        g: &Graph,
        energy: &[u64],
        cfg: &CdsConfig,
        expected: &[bool],
        got: &[bool],
    ) -> Self {
        Self {
            case: case.to_string(),
            implementation: implementation.to_string(),
            cfg: *cfg,
            n: g.n(),
            edges: g.edges().collect(),
            energy: energy.to_vec(),
            expected: mask_to_vec(expected),
            got: mask_to_vec(got),
            panic: None,
        }
    }

    /// Rebuilds the recorded topology.
    pub fn graph(&self) -> Graph {
        Graph::from_edges(self.n, &self.edges)
    }
}

/// Greedily shrinks `file` while `still_fails(graph, energy)` holds:
/// repeatedly tries dropping one vertex (via [`Graph::induced`], which
/// renumbers and keeps the matching energy entries), then one edge, until
/// neither shrinks further. The mismatch masks in the result are *not*
/// recomputed — [`replay`] re-derives them on the shrunk instance.
pub fn shrink_case<F>(mut file: CaseFile, mut still_fails: F) -> CaseFile
where
    F: FnMut(&Graph, &[u64]) -> bool,
{
    let mut g = file.graph();
    let mut energy = file.energy.clone();
    let mut progress = true;
    while progress {
        progress = false;
        // Vertex removal pass.
        let mut v = 0;
        while v < g.n() {
            let mut keep = vec![true; g.n()];
            keep[v] = false;
            let (candidate, old_of) = g.induced(&keep);
            let cand_energy: Vec<u64> = old_of.iter().map(|&o| energy[o as usize]).collect();
            if still_fails(&candidate, &cand_energy) {
                g = candidate;
                energy = cand_energy;
                progress = true;
                // Do not advance v: the same index now names a new vertex.
            } else {
                v += 1;
            }
        }
        // Edge removal pass.
        let edges: Vec<(NodeId, NodeId)> = g.edges().collect();
        for e in edges {
            let kept: Vec<_> = g.edges().filter(|&f| f != e).collect();
            let candidate = Graph::from_edges(g.n(), &kept);
            if still_fails(&candidate, &energy) {
                g = candidate;
                progress = true;
            }
        }
    }
    file.n = g.n();
    file.edges = g.edges().collect();
    file.energy = energy;
    file
}

/// Directory case files are written to.
pub fn case_dir() -> PathBuf {
    std::env::var_os("PACDS_TESTKIT_CASE_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/testkit-failures"))
}

/// Writes `file` as pretty JSON into [`case_dir`], returning the path.
///
/// The file name carries the implementation, the case, every configuration
/// axis and the shrunk size, so one case failing under several
/// configurations leaves one file per configuration.
pub fn emit_case(file: &CaseFile) -> PathBuf {
    let dir = case_dir();
    std::fs::create_dir_all(&dir).expect("create case dir");
    let slug: String = file
        .case
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect();
    let cfg = &file.cfg;
    let path = dir.join(format!(
        "{}-{}-{:?}-{:?}-{:?}-{:?}-n{}.json",
        file.implementation, slug, cfg.policy, cfg.schedule, cfg.rule2, cfg.application, file.n
    ));
    std::fs::write(
        &path,
        serde_json::to_string_pretty(file).expect("serialize case"),
    )
    .expect("write case file");
    path
}

/// Outcome of replaying a case file.
#[derive(Debug)]
pub struct Replay {
    /// Oracle result on the recorded instance, recomputed now.
    pub expected: Vec<NodeId>,
    /// Implementation result, recomputed now (empty when it panicked).
    pub got: Vec<NodeId>,
    /// The implementation's panic message, if it panicked now.
    pub panic: Option<String>,
}

impl Replay {
    /// Whether the failure still reproduces: a mismatch or a panic.
    pub fn reproduces(&self) -> bool {
        self.panic.is_some() || self.expected != self.got
    }
}

/// Re-executes a case file: rebuilds the graph, reruns the oracle and the
/// named implementation (catching a panic), and reports both results.
pub fn replay(path: &Path) -> Result<Replay, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let file: CaseFile = serde_json::from_str(&text).map_err(|e| e.to_string())?;
    let kind = ImplKind::ALL
        .into_iter()
        .find(|k| k.name() == file.implementation)
        .ok_or_else(|| format!("unknown implementation {:?}", file.implementation))?;
    let g = file.graph();
    let expected = crate::oracle::compute_cds_oracle(&g, Some(&file.energy), &file.cfg);
    let got = crate::harness::run_impl_caught(kind, &g, Some(&file.energy), &file.cfg);
    Ok(Replay {
        expected: mask_to_vec(&expected),
        got: got.as_deref().map_or_else(|_| Vec::new(), mask_to_vec),
        panic: got.err(),
    })
}

/// Round-trips a vertex list through a mask of size `n` (replay helper).
pub fn to_mask(n: usize, verts: &[NodeId]) -> Vec<bool> {
    vec_to_mask(n, verts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pacds_core::Policy;
    use pacds_graph::gen;

    #[test]
    fn shrink_preserves_the_predicate() {
        // Predicate: graph still contains a vertex of degree >= 3. The
        // greedy shrinker must reduce a 4x5 grid to (near) the minimal
        // witness — a star on 4 vertices.
        let g = gen::grid(4, 5);
        let energy: Vec<u64> = (0..20).collect();
        let file = CaseFile {
            case: "shrink-test".into(),
            implementation: "pipeline".into(),
            cfg: CdsConfig::policy(Policy::Id),
            n: g.n(),
            edges: g.edges().collect(),
            energy: energy.clone(),
            expected: vec![],
            got: vec![],
            panic: None,
        };
        let shrunk = shrink_case(file, |g2, _| g2.max_degree() >= 3);
        assert!(shrunk.n <= 4, "shrunk to n={}", shrunk.n);
        assert!(shrunk.graph().max_degree() >= 3);
        assert_eq!(shrunk.energy.len(), shrunk.n);
    }

    #[test]
    fn casefile_round_trips_through_json() {
        let g = gen::cycle(5);
        let file = CaseFile {
            case: "round-trip".into(),
            implementation: "workspace".into(),
            cfg: CdsConfig::paper(Policy::Degree),
            n: 5,
            edges: g.edges().collect(),
            energy: vec![1, 2, 3, 4, 5],
            expected: vec![0, 1],
            got: vec![0, 2],
            panic: Some("a host stalled".into()),
        };
        let json = serde_json::to_string(&file).unwrap();
        let back: CaseFile = serde_json::from_str(&json).unwrap();
        assert_eq!(back.graph(), g);
        assert_eq!(back.cfg, file.cfg);
        assert_eq!(back.expected, file.expected);
        assert_eq!(back.panic, file.panic);
        // A file written before the panic field existed reads as no panic.
        let old = json.replace(r#","panic":"a host stalled""#, "");
        assert!(!old.contains("panic"), "{old}");
        let back: CaseFile = serde_json::from_str(&old).unwrap();
        assert_eq!(back.panic, None);
    }
}
