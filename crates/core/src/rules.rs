//! The selective-removal rules (Rule 1 and Rule 2 and all their variants).
//!
//! Both rules run *simultaneously* over a snapshot of the marked set: every
//! node evaluates its removal condition against the same input marking, and
//! all removals are applied at once. This mirrors the distributed reality —
//! each host decides from its local 2-hop view, with no global sequencing —
//! and it is safe because priorities form a strict total order (the
//! lower-priority node of any coverage-equivalent pair is uniquely
//! determined).

use crate::priority::PriorityKey;
use pacds_graph::{NeighborBitmap, Neighbors, NodeId, VertexMask};
use pacds_obs::{Counter, Phase, Tally};

/// How Rule 2 combines the coverage tests with the priority order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Rule2Semantics {
    /// The original Rule 2, generalised to any priority order: `v` unmarks
    /// iff `N(v) ⊆ N(u) ∪ N(w)` and `v` has the minimum priority among the
    /// triple.
    ///
    /// This is *provably safe* under simultaneous application for any strict
    /// total priority order (it is the pair-coverage special case of the
    /// Dai-Wu restricted rule: coverage composes — if `v` relies on a
    /// removed `u`, substituting `u`'s own higher-priority coverers yields a
    /// retained, connected cover of `v`).
    MinOfThree,
    /// The extended Rules 2a/2b/2b' exactly as the paper states them: the
    /// triple is first classified by which of `v, u, w` are covered by the
    /// other two, and the priority comparison only arbitrates among the
    /// covered ones (paper §3.1–3.2):
    ///
    /// 1. only `v` covered → `v` unmarks unconditionally;
    /// 2. `v` and one of `u, w` covered → `v` unmarks iff it has lower
    ///    priority than that one;
    /// 3. all three covered → `v` unmarks iff it has the minimum priority.
    ///
    /// **Fidelity warning:** this literal reading is *not* safe under
    /// simultaneous application. Two nodes can each justify their removal
    /// through a pair containing the other (cases 1–2 skip the priority
    /// comparison against the "uncovered" pair member), and their common
    /// neighbour loses all its dominators. See
    /// `rules::tests::paper_literal_rule2_counterexample` for a concrete
    /// 7-node graph. Violations are rare on random topologies (the paper's
    /// simulation would not have noticed); `pacds-sim` quantifies the rate.
    CaseAnalysis,
}

/// Reusable scratch for the rule passes: the candidate-neighbour list plus
/// the row-support word buffer that keeps the coverage predicates O(degree)
/// instead of O(n/64) per check (see
/// [`NeighborBitmap::row_support_into`]).
///
/// One instance serves any sequence of passes; every buffer is cleared and
/// refilled per vertex, so hot loops perform no allocation once the scratch
/// has grown to the topology's high-water mark.
#[derive(Debug, Clone, Default)]
pub struct RuleScratch {
    nbrs: Vec<NodeId>,
    support: Vec<(u32, u64)>,
}

/// Stack-local counters for one Rule 1 sweep (zero-sized when the `obs`
/// feature is off). Hot loops bump these plain `u64`s and flush into the
/// global atomics once per pass.
#[derive(Debug, Default, Clone, Copy)]
struct Rule1Tally {
    candidates: Tally,
    prefilter_rejects: Tally,
    witness_probes: Tally,
    witness_rejects: Tally,
    subset_scans: Tally,
    unmarked: Tally,
}

impl Rule1Tally {
    fn flush(&mut self) {
        self.candidates.flush(Counter::Rule1Candidates);
        self.prefilter_rejects.flush(Counter::Rule1PrefilterRejects);
        self.witness_probes.flush(Counter::Rule1WitnessProbes);
        self.witness_rejects.flush(Counter::Rule1WitnessRejects);
        self.subset_scans.flush(Counter::Rule1SubsetScans);
        self.unmarked.flush(Counter::Rule1Unmarked);
    }
}

/// Stack-local counters for one Rule 2 sweep; see [`Rule1Tally`].
#[derive(Debug, Default, Clone, Copy)]
struct Rule2Tally {
    vertices: Tally,
    candidates: Tally,
    pairs: Tally,
    witness_rejects: Tally,
    coverage_scans: Tally,
    unmarked: Tally,
}

impl Rule2Tally {
    fn flush(&mut self) {
        self.vertices.flush(Counter::Rule2Vertices);
        self.candidates.flush(Counter::Rule2Candidates);
        self.pairs.flush(Counter::Rule2PairsProbed);
        self.witness_rejects.flush(Counter::Rule2WitnessRejects);
        self.coverage_scans.flush(Counter::Rule2CoverageScans);
        self.unmarked.flush(Counter::Rule2Unmarked);
    }
}

impl RuleScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-sizes every buffer for graphs of `n` vertices.
    pub fn reserve(&mut self, n: usize) {
        self.nbrs.reserve(n);
        self.support.reserve(n.div_ceil(64));
    }
}

/// One simultaneous Rule 1 pass.
///
/// A marked `v` unmarks itself when some marked `u` has `N[v] ⊆ N[u]` and
/// `v` has lower priority than `u`. Since the coverage condition implies
/// `u ∈ N(v)`, only neighbours need to be examined.
///
/// Returns the new marked mask; `removed` (if provided) collects the
/// unmarked vertices.
pub fn rule1_pass<G: Neighbors + ?Sized>(
    g: &G,
    bm: &NeighborBitmap,
    marked: &[bool],
    key: &PriorityKey,
    removed: Option<&mut Vec<NodeId>>,
) -> VertexMask {
    let mut next = Vec::new();
    rule1_pass_into(g, bm, marked, key, &mut next, removed);
    next
}

/// [`rule1_pass`] writing the result into a caller-provided mask (cleared
/// and refilled), so hot loops allocate nothing.
pub fn rule1_pass_into<G: Neighbors + ?Sized>(
    g: &G,
    bm: &NeighborBitmap,
    marked: &[bool],
    key: &PriorityKey,
    next: &mut VertexMask,
    mut removed: Option<&mut Vec<NodeId>>,
) {
    let _t = pacds_obs::phase_timer(Phase::Rule1);
    let mut tally = Rule1Tally::default();
    next.clear();
    next.extend_from_slice(marked);
    for v in g.vertices() {
        if !marked[v as usize] {
            continue;
        }
        // Two exact pre-filters keep the word scan off the common path:
        // `N[v] ⊆ N[u]` forces `deg(v) ≤ deg(u)`, and it forces `u` to
        // contain v's lowest-id neighbour (the witness) — a single bit
        // probe that rejects almost every surviving candidate.
        let dv = g.neighbors(v).len();
        let witness = g.neighbors(v).iter().copied().min().unwrap_or(v);
        for &u in g.neighbors(v) {
            tally.candidates.bump();
            if !(marked[u as usize] && g.neighbors(u).len() >= dv && key.lt(v, u)) {
                tally.prefilter_rejects.bump();
                continue;
            }
            tally.witness_probes.bump();
            if !(witness == u || bm.contains(witness, u)) {
                tally.witness_rejects.bump();
                continue;
            }
            tally.subset_scans.bump();
            if bm.closed_subset(v, u) {
                tally.unmarked.bump();
                next[v as usize] = false;
                if let Some(r) = removed.as_deref_mut() {
                    r.push(v);
                }
                break;
            }
        }
    }
    tally.flush();
}

/// One simultaneous Rule 2 pass.
///
/// A marked `v` with two marked neighbours `u, w` unmarks itself when
/// `N(v) ⊆ N(u) ∪ N(w)` and the chosen [`Rule2Semantics`] approves. The
/// coverage condition implies `u` and `w` are adjacent (every neighbour of
/// `v`, in particular `u`, lies in `N(u) ∪ N(w)`; `u ∉ N(u)`, so `u ∈ N(w)`),
/// so the surviving pair keeps the pruned set connected.
pub fn rule2_pass<G: Neighbors + ?Sized>(
    g: &G,
    bm: &NeighborBitmap,
    marked: &[bool],
    key: &PriorityKey,
    semantics: Rule2Semantics,
    removed: Option<&mut Vec<NodeId>>,
) -> VertexMask {
    let mut next = Vec::new();
    rule2_pass_into(g, bm, marked, key, semantics, &mut RuleScratch::new(), &mut next, removed);
    next
}

/// [`rule2_pass`] writing into caller-provided buffers: `scratch` holds the
/// marked-neighbour list and coverage word buffers, `next` receives the
/// result (cleared and refilled).
#[allow(clippy::too_many_arguments)]
pub fn rule2_pass_into<G: Neighbors + ?Sized>(
    g: &G,
    bm: &NeighborBitmap,
    marked: &[bool],
    key: &PriorityKey,
    semantics: Rule2Semantics,
    scratch: &mut RuleScratch,
    next: &mut VertexMask,
    mut removed: Option<&mut Vec<NodeId>>,
) {
    let _t = pacds_obs::phase_timer(Phase::Rule2);
    let mut tally = Rule2Tally::default();
    next.clear();
    next.extend_from_slice(marked);
    for v in g.vertices() {
        if !marked[v as usize] {
            continue;
        }
        tally.vertices.bump();
        if !fill_rule2_candidates(g, marked, key, semantics, v, &mut scratch.nbrs) {
            continue;
        }
        tally.candidates.add(scratch.nbrs.len() as u64);
        if rule2_decides_removal(bm, key, semantics, v, scratch, &mut tally) {
            tally.unmarked.bump();
            next[v as usize] = false;
            if let Some(r) = removed.as_deref_mut() {
                r.push(v);
            }
        }
    }
    tally.flush();
}

/// Sequential (in-place) Rule 1 sweep: vertices are visited in ascending
/// id order and markers are updated immediately, so later decisions see
/// earlier removals.
///
/// Every single removal preserves the CDS invariant (the covering `u` is
/// marked *at that moment* and `N[v] ⊆ N[u]`), so the sweep is sound for
/// any priority order — this is the natural way a sequential simulation
/// loop implements the rules, and the variant whose behaviour best matches
/// the paper's reported Figure 10 set sizes (see EXPERIMENTS.md).
pub fn rule1_pass_sequential<G: Neighbors + ?Sized>(
    g: &G,
    bm: &NeighborBitmap,
    marked: &[bool],
    key: &PriorityKey,
    removed: Option<&mut Vec<NodeId>>,
) -> VertexMask {
    let mut cur = Vec::new();
    rule1_pass_sequential_into(g, bm, marked, key, &mut cur, removed);
    cur
}

/// [`rule1_pass_sequential`] writing into a caller-provided mask.
pub fn rule1_pass_sequential_into<G: Neighbors + ?Sized>(
    g: &G,
    bm: &NeighborBitmap,
    marked: &[bool],
    key: &PriorityKey,
    cur: &mut VertexMask,
    mut removed: Option<&mut Vec<NodeId>>,
) {
    let _t = pacds_obs::phase_timer(Phase::Rule1);
    let mut tally = Rule1Tally::default();
    cur.clear();
    cur.extend_from_slice(marked);
    for v in g.vertices() {
        if !cur[v as usize] {
            continue;
        }
        let dv = g.neighbors(v).len();
        let witness = g.neighbors(v).iter().copied().min().unwrap_or(v);
        let mut kill = false;
        for &u in g.neighbors(v) {
            tally.candidates.bump();
            if !(cur[u as usize] && g.neighbors(u).len() >= dv && key.lt(v, u)) {
                tally.prefilter_rejects.bump();
                continue;
            }
            tally.witness_probes.bump();
            if !(witness == u || bm.contains(witness, u)) {
                tally.witness_rejects.bump();
                continue;
            }
            tally.subset_scans.bump();
            if bm.closed_subset(v, u) {
                kill = true;
                break;
            }
        }
        if kill {
            tally.unmarked.bump();
            cur[v as usize] = false;
            if let Some(r) = removed.as_deref_mut() {
                r.push(v);
            }
        }
    }
    tally.flush();
}

/// Sequential (in-place) Rule 2 sweep; see [`rule1_pass_sequential`].
pub fn rule2_pass_sequential<G: Neighbors + ?Sized>(
    g: &G,
    bm: &NeighborBitmap,
    marked: &[bool],
    key: &PriorityKey,
    semantics: Rule2Semantics,
    removed: Option<&mut Vec<NodeId>>,
) -> VertexMask {
    let mut cur = Vec::new();
    rule2_pass_sequential_into(
        g,
        bm,
        marked,
        key,
        semantics,
        &mut RuleScratch::new(),
        &mut cur,
        removed,
    );
    cur
}

/// [`rule2_pass_sequential`] writing into caller-provided buffers; see
/// [`rule2_pass_into`].
#[allow(clippy::too_many_arguments)]
pub fn rule2_pass_sequential_into<G: Neighbors + ?Sized>(
    g: &G,
    bm: &NeighborBitmap,
    marked: &[bool],
    key: &PriorityKey,
    semantics: Rule2Semantics,
    scratch: &mut RuleScratch,
    cur: &mut VertexMask,
    mut removed: Option<&mut Vec<NodeId>>,
) {
    let _t = pacds_obs::phase_timer(Phase::Rule2);
    let mut tally = Rule2Tally::default();
    cur.clear();
    cur.extend_from_slice(marked);
    for v in g.vertices() {
        if !cur[v as usize] {
            continue;
        }
        tally.vertices.bump();
        if !fill_rule2_candidates(g, cur, key, semantics, v, &mut scratch.nbrs) {
            continue;
        }
        tally.candidates.add(scratch.nbrs.len() as u64);
        if rule2_decides_removal(bm, key, semantics, v, scratch, &mut tally) {
            tally.unmarked.bump();
            cur[v as usize] = false;
            if let Some(r) = removed.as_deref_mut() {
                r.push(v);
            }
        }
    }
    tally.flush();
}

/// Fills `scratch.nbrs` with the neighbours of `v` that can participate in
/// a Rule 2 pair under `semantics`: every marked neighbour for the
/// case-analysis form, but only the *higher-priority* marked neighbours for
/// min-of-three — there, coverage and priority are a pure conjunction, so a
/// lower-priority neighbour can never be half of a removing pair. Returns
/// `false` when fewer than two remain (no pair is possible).
fn fill_rule2_candidates<G: Neighbors + ?Sized>(
    g: &G,
    marked: &[bool],
    key: &PriorityKey,
    semantics: Rule2Semantics,
    v: NodeId,
    nbrs: &mut Vec<NodeId>,
) -> bool {
    nbrs.clear();
    let eligible = g.neighbors(v).iter().copied().filter(|&u| marked[u as usize]);
    match semantics {
        Rule2Semantics::MinOfThree => nbrs.extend(eligible.filter(|&u| key.lt(v, u))),
        Rule2Semantics::CaseAnalysis => nbrs.extend(eligible),
    }
    nbrs.len() >= 2
}

/// Whether some pair of the neighbours in `scratch.nbrs` justifies
/// unmarking `v` (the caller fills `scratch.nbrs` via
/// [`fill_rule2_candidates`]; the word buffers are internal).
///
/// Coverage is decided per candidate `u` on the residual `N(v) \ N(u)`: its
/// lowest vertex is a *witness* every viable partner `w` must contain, so
/// most pairs die on a single [`NeighborBitmap::contains`] probe, and the
/// residual word list is only materialised once some `w` survives the
/// witness test. Bit-identical to testing
/// [`NeighborBitmap::open_subset_pair`] on every pair, at a fraction of the
/// word traffic. The removal outcome is an OR over pairs, so the evaluation
/// order cannot change the result.
fn rule2_decides_removal(
    bm: &NeighborBitmap,
    key: &PriorityKey,
    semantics: Rule2Semantics,
    v: NodeId,
    scratch: &mut RuleScratch,
    tally: &mut Rule2Tally,
) -> bool {
    let RuleScratch { nbrs, support } = scratch;
    bm.row_support_into(v, support);
    match semantics {
        Rule2Semantics::MinOfThree => {
            // `nbrs` holds only higher-priority neighbours, so coverage
            // alone decides.
            //
            // The pair loop is the hottest loop in the pipeline, so the
            // tallies stay in registers: pairs-probed comes from index
            // arithmetic at each loop exit, and every probed pair either
            // fails the witness test or reaches a coverage scan, so the
            // reject count is the difference of the two.
            fn settle(t: &mut Rule2Tally, pairs: Tally, cov: Tally) {
                t.pairs.add(pairs.get());
                t.coverage_scans.add(cov.get());
                t.witness_rejects.add(pairs.get() - cov.get());
            }
            let mut pairs = Tally::new();
            let mut cov = Tally::new();
            for (i, &u) in nbrs.iter().enumerate() {
                match bm.first_residual_bit(support, u) {
                    // N(v) ⊆ N(u): the pair (u, w) covers for *any* other
                    // candidate w, and the caller guarantees one exists.
                    None => {
                        settle(tally, pairs, cov);
                        return true;
                    }
                    Some(b) => {
                        let rest = &nbrs[i + 1..];
                        for (j, &w) in rest.iter().enumerate() {
                            if !bm.contains(w, b) {
                                continue;
                            }
                            cov.bump();
                            if bm.open_subset_pair_with(support, u, w) {
                                pairs.add(j as u64 + 1);
                                settle(tally, pairs, cov);
                                return true;
                            }
                        }
                        pairs.add(rest.len() as u64);
                    }
                }
            }
            settle(tally, pairs, cov);
            false
        }
        Rule2Semantics::CaseAnalysis => {
            for (i, &u) in nbrs.iter().enumerate() {
                let witness = bm.first_residual_bit(support, u);
                for &w in &nbrs[i + 1..] {
                    tally.pairs.bump();
                    if let Some(b) = witness {
                        if !bm.contains(w, b) {
                            tally.witness_rejects.bump();
                            continue;
                        }
                        tally.coverage_scans.bump();
                        if !bm.open_subset_pair_with(support, u, w) {
                            continue;
                        }
                    }
                    tally.coverage_scans.add(2);
                    let cu = bm.open_subset_pair(u, v, w);
                    let cw = bm.open_subset_pair(w, v, u);
                    let ok = match (cu, cw) {
                        (false, false) => true,
                        (true, false) => key.lt(v, u),
                        (false, true) => key.lt(v, w),
                        (true, true) => key.lt(v, u) && key.lt(v, w),
                    };
                    if ok {
                        return true;
                    }
                }
            }
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::marking::marking;
    use crate::priority::Policy;
    use pacds_graph::{mask_to_vec, Graph};

    fn prio(policy: Policy, g: &Graph, energy: Option<&[u64]>) -> PriorityKey {
        PriorityKey::build(policy, g, energy)
    }

    /// Figure 3(a): N[v] ⊆ N[u]. v=0, u=1, a=2, b=3.
    /// Edges: v-u, v-a, u-a, u-b.
    fn fig3a() -> Graph {
        Graph::from_edges(4, &[(0, 1), (0, 2), (1, 2), (1, 3)])
    }

    #[test]
    fn rule1_unmarks_covered_lower_id() {
        let g = fig3a();
        let bm = NeighborBitmap::build(&g);
        let marked = marking(&g);
        // Initially both 0 and 1 are marked (0 has unconnected nbrs? N(0)={1,2},
        // 1-2 edge exists -> 0 NOT marked). Let's check directly.
        assert_eq!(mask_to_vec(&marked), vec![1]); // only u=1 is marked
        // Force-mark 0 to exercise the rule in isolation.
        let mut m = marked.clone();
        m[0] = true;
        let key = prio(Policy::Id, &g, None);
        let mut removed = Vec::new();
        let out = rule1_pass(&g, &bm, &m, &key, Some(&mut removed));
        assert_eq!(removed, vec![0]);
        assert_eq!(mask_to_vec(&out), vec![1]);
    }

    #[test]
    fn rule1_equal_neighborhoods_removes_exactly_one() {
        // Figure 3(b): N[v] = N[u]; v=0, u=1 both adjacent to 2 and each other.
        let g = Graph::from_edges(3, &[(0, 1), (0, 2), (1, 2)]);
        let bm = NeighborBitmap::build(&g);
        let m = vec![true, true, false];
        let key = prio(Policy::Id, &g, None);
        let out = rule1_pass(&g, &bm, &m, &key, None);
        assert_eq!(mask_to_vec(&out), vec![1]); // id 0 < id 1 -> 0 removed
    }

    #[test]
    fn rule1_higher_id_survives_even_when_strictly_covered() {
        // N[v] ⊂ N[u] but id(v) > id(u): v must stay (literal paper reading).
        // v=3 covered by u=1: edges 3-1, 3-2, 1-2, 1-0.
        let g = Graph::from_edges(4, &[(3, 1), (3, 2), (1, 2), (1, 0)]);
        let bm = NeighborBitmap::build(&g);
        let m = vec![false, true, false, true];
        let key = prio(Policy::Id, &g, None);
        let out = rule1_pass(&g, &bm, &m, &key, None);
        assert_eq!(mask_to_vec(&out), vec![1, 3]);
    }

    #[test]
    fn rule1_degree_priority_removes_low_degree_node() {
        // v=3 has degree 2, u=1 has degree 3; N[3] ⊆ N[1].
        let g = Graph::from_edges(4, &[(3, 1), (3, 2), (1, 2), (1, 0)]);
        let bm = NeighborBitmap::build(&g);
        let m = vec![false, true, false, true];
        let key = prio(Policy::Degree, &g, None);
        let out = rule1_pass(&g, &bm, &m, &key, None);
        assert_eq!(mask_to_vec(&out), vec![1]); // 3 removed despite higher id
    }

    #[test]
    fn rule1_energy_priority_keeps_the_energetic_node() {
        // Same coverage both ways (triangle with shared neighbourhood).
        let g = Graph::from_edges(3, &[(0, 1), (0, 2), (1, 2)]);
        let bm = NeighborBitmap::build(&g);
        let m = vec![true, true, false];
        // Node 0 has more energy: node 1 should be removed.
        let key = prio(Policy::Energy, &g, Some(&[50, 10, 30]));
        let out = rule1_pass(&g, &bm, &m, &key, None);
        assert_eq!(mask_to_vec(&out), vec![0]);
    }

    #[test]
    fn rule2_min_of_three_unmarks_minimum_id() {
        // v=0 adjacent to u=1, w=2 and x=3; u-w edge; x-u edge; pendant 4 on w
        // keeps w marked. N(0) = {1,2,3} ⊆ N(1) ∪ N(2).
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 4)]);
        let bm = NeighborBitmap::build(&g);
        let marked = marking(&g);
        assert_eq!(mask_to_vec(&marked), vec![0, 1, 2]);
        let key = prio(Policy::Id, &g, None);
        let out = rule2_pass(&g, &bm, &marked, &key, Rule2Semantics::MinOfThree, None);
        assert_eq!(mask_to_vec(&out), vec![1, 2]); // v=0 has min id
    }

    #[test]
    fn rule2_min_of_three_keeps_non_minimum() {
        // v=4 covered by u=1, w=2, but u and w have private pendants (3 and
        // 5), so only v is covered — and v has the *max* id, so the original
        // Rule 2 keeps everything.
        let g = Graph::from_edges(
            6,
            &[(4, 1), (4, 2), (4, 0), (1, 2), (1, 0), (1, 3), (2, 5)],
        );
        let bm = NeighborBitmap::build(&g);
        let marked = marking(&g);
        assert_eq!(mask_to_vec(&marked), vec![1, 2, 4]);
        let key = prio(Policy::Id, &g, None);
        let out = rule2_pass(&g, &bm, &marked, &key, Rule2Semantics::MinOfThree, None);
        assert_eq!(mask_to_vec(&out), vec![1, 2, 4]);
    }

    #[test]
    fn rule2_case_analysis_case1_removes_unconditionally() {
        // Same topology as above: v=4 covered, u=1 and w=2 not covered
        // (case 1) — the extended rules remove v despite its max id.
        let g = Graph::from_edges(
            6,
            &[(4, 1), (4, 2), (4, 0), (1, 2), (1, 0), (1, 3), (2, 5)],
        );
        let bm = NeighborBitmap::build(&g);
        let marked = marking(&g);
        let key = prio(Policy::Degree, &g, None);
        let out = rule2_pass(&g, &bm, &marked, &key, Rule2Semantics::CaseAnalysis, None);
        assert_eq!(mask_to_vec(&out), vec![1, 2]);
    }

    #[test]
    fn rule2_case_analysis_case2_compares_only_with_covered_peer() {
        // v and u cover each other; w has a pendant so it is not covered.
        // v=1, u=2 (twins adjacent to w=0 and each other); w=0 also has pendant 3.
        // N(1) = {0, 2}; N(2) = {0, 1}; N(0) = {1, 2, 3}.
        // c_v: N(1) ⊆ N(2) ∪ N(0)? {0,2}: 0 ∈ N(2)? yes. 2 ∈ N(0)? yes -> covered.
        // c_u(2): {0,1}: 0 ∈ N(1)? yes; 1 ∈ N(0)? yes -> covered.
        // c_w(0): {1,2,3}: 3 ∈ N(1) ∪ N(2)? no -> not covered.
        let g = Graph::from_edges(4, &[(1, 2), (1, 0), (2, 0), (0, 3)]);
        let bm = NeighborBitmap::build(&g);
        let m = vec![true, true, true, false];
        let key = prio(Policy::Id, &g, None);
        let out = rule2_pass(&g, &bm, &m, &key, Rule2Semantics::CaseAnalysis, None);
        // Triple (v=1; 0, 2): case 2 with covered peer 2; id(1) < id(2) -> remove 1.
        // Triple (v=2; 0, 1): case 2 with covered peer 1; id(2) > id(1) -> keep 2.
        // v=0 is not covered -> kept.
        assert_eq!(mask_to_vec(&out), vec![0, 2]);
    }

    #[test]
    fn rule2_case_analysis_case3_min_priority_among_triangle() {
        // Triangle 0-1-2 with no pendants: all three cover each other.
        let g = Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        let bm = NeighborBitmap::build(&g);
        let m = vec![true, true, true];
        let key = prio(Policy::Energy, &g, Some(&[30, 10, 20]));
        let out = rule2_pass(&g, &bm, &m, &key, Rule2Semantics::CaseAnalysis, None);
        // Node 1 has minimum energy -> removed; exactly one removal.
        assert_eq!(mask_to_vec(&out), vec![0, 2]);
    }

    #[test]
    fn rule2_requires_two_marked_neighbors() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        let bm = NeighborBitmap::build(&g);
        let m = vec![true, false, true]; // only one marked neighbour each
        let key = prio(Policy::Id, &g, None);
        let out = rule2_pass(&g, &bm, &m, &key, Rule2Semantics::MinOfThree, None);
        assert_eq!(mask_to_vec(&out), vec![0, 2]);
    }

    /// Documents the soundness gap in the paper's literal Rules 2a/2b/2b':
    /// under simultaneous application, nodes 1 and 6 both unmark via case 2
    /// (each through a pair containing the other), and node 2 — whose only
    /// neighbours are 1 and 6 — ends up undominated. The safe
    /// [`Rule2Semantics::MinOfThree`] keeps the set dominating.
    #[test]
    fn paper_literal_rule2_counterexample() {
        let g = Graph::from_edges(
            7,
            &[
                (0, 3),
                (0, 5),
                (0, 6),
                (1, 2),
                (1, 3),
                (1, 4),
                (1, 5),
                (1, 6),
                (2, 6),
                (3, 4),
                (4, 5),
                (4, 6),
                (5, 6),
            ],
        );
        let energy = [5u64, 1, 8, 4, 9, 7, 2];
        let bm = NeighborBitmap::build(&g);
        let marked = marking(&g);
        let key = prio(Policy::Energy, &g, Some(&energy));

        let literal = rule2_pass(&g, &bm, &marked, &key, Rule2Semantics::CaseAnalysis, None);
        assert!(
            !crate::verify::is_dominating_set(&g, &literal),
            "the literal extended Rule 2 loses domination on this graph"
        );

        let safe = rule2_pass(&g, &bm, &marked, &key, Rule2Semantics::MinOfThree, None);
        assert!(crate::verify::is_connected_dominating_set(&g, &safe));
    }

    #[test]
    fn rule2_energy_tie_breaks_by_id() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        let bm = NeighborBitmap::build(&g);
        let m = vec![true, true, true];
        let key = prio(Policy::Energy, &g, Some(&[7, 7, 7]));
        let out = rule2_pass(&g, &bm, &m, &key, Rule2Semantics::CaseAnalysis, None);
        assert_eq!(mask_to_vec(&out), vec![1, 2]); // id 0 is the tie-break loser
    }
}
