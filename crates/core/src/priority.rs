//! Node priorities for the selective-removal rules.
//!
//! Every rule variant in the paper removes the node with the *lower*
//! priority under a lexicographic key:
//!
//! * `Id`            — `(id)`                      (original Rules 1/2)
//! * `Degree` (ND)   — `(degree, id)`              (Rules 1a/2a)
//! * `Energy` (EL1)  — `(energy, id)`              (Rules 1b/2b)
//! * `EnergyDegree`  — `(energy, degree, id)`      (Rules 1b'/2b')
//!
//! Because node ids are distinct, every policy induces a strict total
//! order; this is what makes simultaneous rule application safe (exactly
//! one node of a coverage-equivalent pair removes itself).

use pacds_graph::{Graph, NodeId, ReserveLike};
use serde::{Deserialize, Serialize};

/// Discrete energy level, as the rules compare it.
///
/// The paper keeps host energy on "multiple discrete levels"; the energy
/// crate quantises the continuous battery into this integer before the rules
/// run, so priority comparisons are exact and platform-independent.
pub type EnergyLevel = u64;

/// Which rule family (equivalently, which priority order) to apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Policy {
    /// Marking process only — no selective removal ("NR" in the figures).
    NoPruning,
    /// Original Rules 1 and 2, node-id priority ("ID").
    Id,
    /// Rules 1a and 2a, node-degree priority with id tie-break ("ND").
    Degree,
    /// Rules 1b and 2b, energy-level priority with id tie-break ("EL1").
    Energy,
    /// Rules 1b' and 2b', energy-level priority with degree then id
    /// tie-breaks ("EL2").
    EnergyDegree,
}

impl Policy {
    /// All policies, in the order the paper's figures list them.
    pub const ALL: [Policy; 5] = [
        Policy::NoPruning,
        Policy::Id,
        Policy::Degree,
        Policy::Energy,
        Policy::EnergyDegree,
    ];

    /// The figure legend label used in the paper ("NR", "ID", "ND", "EL1",
    /// "EL2").
    pub fn label(&self) -> &'static str {
        match self {
            Policy::NoPruning => "NR",
            Policy::Id => "ID",
            Policy::Degree => "ND",
            Policy::Energy => "EL1",
            Policy::EnergyDegree => "EL2",
        }
    }

    /// Whether this policy's priority consults the hosts' energy levels.
    pub fn needs_energy(&self) -> bool {
        matches!(self, Policy::Energy | Policy::EnergyDegree)
    }

    /// Whether any pruning rules run at all.
    pub fn prunes(&self) -> bool {
        !matches!(self, Policy::NoPruning)
    }
}

impl std::fmt::Display for Policy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A materialised priority table: `key(v)` compares lexicographically, and
/// smaller keys are removed first.
#[derive(Debug, Clone, Default)]
pub struct PriorityKey {
    keys: Vec<[u64; 3]>,
}

impl ReserveLike for PriorityKey {
    fn reserve_like(&mut self, other: &Self) {
        self.keys.reserve_like(&other.keys);
    }
}

impl PriorityKey {
    /// An empty table; a reusable slot for [`PriorityKey::rebuild`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds the key table for `policy` over graph `g`.
    ///
    /// `energy[v]` must be provided (same length as `g.n()`) for the
    /// energy-aware policies and is ignored otherwise.
    ///
    /// # Panics
    /// Panics if `policy.needs_energy()` and `energy` is `None` or of the
    /// wrong length.
    pub fn build(policy: Policy, g: &Graph, energy: Option<&[EnergyLevel]>) -> Self {
        let mut key = Self::new();
        key.rebuild(policy, g, energy, None);
        key
    }

    /// Recomputes the table in place, reusing the key storage (allocation
    /// free once warm). Same contract as [`PriorityKey::build`], plus the
    /// id tie-break: with `ids`, vertex `v` breaks ties on `ids[v]` (its
    /// id in the caller's labelling, for a subgraph stored in another
    /// order), without it on `v` itself.
    ///
    /// # Panics
    /// Also panics if `ids` is present and its length is not `g.n()`.
    pub fn rebuild(
        &mut self,
        policy: Policy,
        g: &Graph,
        energy: Option<&[EnergyLevel]>,
        ids: Option<&[NodeId]>,
    ) {
        let n = g.n();
        if policy.needs_energy() {
            let e = energy.expect("energy-aware policy requires energy levels");
            assert_eq!(e.len(), n, "energy table length must equal n");
        }
        if let Some(ids) = ids {
            assert_eq!(ids.len(), n, "id table length must equal n");
        }
        self.keys.clear();
        self.keys.extend((0..n as NodeId).map(|v| {
            let id = ids.map_or(v, |ids| ids[v as usize]) as u64;
            let nd = g.degree(v) as u64;
            let el = energy.map_or(0, |e| e[v as usize]);
            match policy {
                Policy::NoPruning | Policy::Id => [id, 0, 0],
                Policy::Degree => [nd, id, 0],
                Policy::Energy => [el, id, 0],
                Policy::EnergyDegree => [el, nd, id],
            }
        }));
    }

    /// The lexicographic key of `v`.
    #[inline]
    pub fn key(&self, v: NodeId) -> [u64; 3] {
        self.keys[v as usize]
    }

    /// Whether `a` has strictly lower priority than `b`.
    #[inline]
    pub fn lt(&self, a: NodeId, b: NodeId) -> bool {
        self.keys[a as usize] < self.keys[b as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pacds_graph::gen;

    #[test]
    fn labels_match_the_figures() {
        let labels: Vec<_> = Policy::ALL.iter().map(|p| p.label()).collect();
        assert_eq!(labels, vec!["NR", "ID", "ND", "EL1", "EL2"]);
    }

    #[test]
    fn id_priority_orders_by_id() {
        let g = gen::star(4);
        let k = PriorityKey::build(Policy::Id, &g, None);
        assert!(k.lt(0, 1));
        assert!(k.lt(1, 3));
        assert!(!k.lt(3, 3));
    }

    #[test]
    fn degree_priority_orders_by_degree_then_id() {
        // star: center 0 has degree 3, leaves degree 1.
        let g = gen::star(4);
        let k = PriorityKey::build(Policy::Degree, &g, None);
        assert!(k.lt(1, 0)); // leaf < center
        assert!(k.lt(1, 2)); // same degree, id tie-break
    }

    #[test]
    fn energy_priority_orders_by_energy_then_id() {
        let g = gen::path(3);
        let k = PriorityKey::build(Policy::Energy, &g, Some(&[5, 9, 5]));
        assert!(k.lt(0, 1));
        assert!(k.lt(0, 2)); // tie on energy, id 0 < 2
        assert!(k.lt(2, 1));
    }

    #[test]
    fn energy_degree_priority_uses_all_three_levels() {
        // path 0-1-2-3: degrees 1,2,2,1
        let g = gen::path(4);
        let k = PriorityKey::build(Policy::EnergyDegree, &g, Some(&[7, 7, 7, 7]));
        assert!(k.lt(0, 1)); // same el, deg 1 < 2
        assert!(k.lt(1, 2)); // same el, same deg, id 1 < 2
        assert!(k.lt(3, 1)); // deg 1 < 2 despite id 3 > 1
    }

    #[test]
    fn priority_is_a_strict_total_order() {
        let g = gen::cycle(6);
        for policy in Policy::ALL {
            let energy = [3u64, 3, 1, 4, 1, 5];
            let k = PriorityKey::build(policy, &g, Some(&energy));
            for a in 0..6u32 {
                for b in 0..6u32 {
                    if a == b {
                        assert!(!k.lt(a, b));
                    } else {
                        assert!(k.lt(a, b) ^ k.lt(b, a), "{policy:?} {a} {b}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "energy-aware policy requires energy levels")]
    fn energy_policy_without_energy_panics() {
        let g = gen::path(3);
        PriorityKey::build(Policy::Energy, &g, None);
    }

    #[test]
    #[should_panic]
    fn wrong_energy_length_panics() {
        let g = gen::path(3);
        PriorityKey::build(Policy::Energy, &g, Some(&[1, 2]));
    }
}
