//! Oracle-vs-production parity on the individual stages, plus the
//! exhaustive-minimum quality check that only a naive oracle can provide.

use pacds_core::{marking, verify_cds, CdsConfig, Policy};
use pacds_graph::{gen, mask_to_vec};
use pacds_testkit::{named_families, oracle, random_unit_disk_cases, run_impl, ImplKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn marking_oracle_matches_production_marking_everywhere() {
    let mut cases = named_families();
    cases.extend(random_unit_disk_cases(555, 60));
    for case in &cases {
        assert_eq!(
            oracle::marking_oracle(&case.graph),
            marking(&case.graph),
            "{}",
            case.name
        );
    }
}

#[test]
fn verifier_verdicts_agree_on_random_masks() {
    // Good masks, bad masks, empty masks: the independent union-find
    // verifier and the production BFS verifier must agree on accept/reject
    // for arbitrary vertex subsets, not just algorithm outputs.
    let mut cases = named_families();
    cases.extend(random_unit_disk_cases(808, 40));
    let mut rng = StdRng::seed_from_u64(99);
    let mut rejects = 0usize;
    let mut accepts = 0usize;
    for case in &cases {
        let n = case.graph.n();
        for trial in 0..8 {
            let mask: Vec<bool> = match trial {
                0 => vec![false; n],
                1 => vec![true; n],
                _ => (0..n).map(|_| rng.random_range(0..3) > 0).collect(),
            };
            let o = oracle::verify_oracle(&case.graph, &mask);
            let p = verify_cds(&case.graph, &mask);
            assert_eq!(
                o.is_ok(),
                p.is_ok(),
                "{}: oracle={o:?} production={p:?} mask={:?}",
                case.name,
                mask_to_vec(&mask)
            );
            if o.is_ok() {
                accepts += 1;
            } else {
                rejects += 1;
            }
        }
    }
    assert!(
        accepts > 0 && rejects > 0,
        "one-sided sample: {accepts} ok / {rejects} err"
    );
}

#[test]
fn computed_cds_is_never_smaller_than_the_exhaustive_minimum() {
    // On every small connected topology the production result must be a
    // valid CDS no smaller than the brute-force optimum. This is the one
    // property only an exhaustive oracle can check, and it also records
    // the paper's approximation behaviour on the adversarial families.
    let cases: Vec<_> = named_families()
        .into_iter()
        .filter(|c| c.connected && c.graph.n() >= 2 && c.graph.n() <= 12)
        .collect();
    assert!(
        cases.len() >= 8,
        "need small connected families, have {}",
        cases.len()
    );
    for case in &cases {
        let Some((min_size, _)) = oracle::min_cds_exhaustive(&case.graph) else {
            panic!("{}: connected case has no CDS?", case.name);
        };
        for policy in Policy::ALL {
            let cfg = CdsConfig::policy(policy);
            let got = run_impl(ImplKind::Pipeline, &case.graph, Some(&case.energy), &cfg);
            assert_eq!(
                oracle::verify_oracle(&case.graph, &got),
                Ok(()),
                "{} {policy:?}",
                case.name
            );
            let size = got.iter().filter(|&&b| b).count();
            assert!(
                size >= min_size,
                "{} {policy:?}: computed {size} < exhaustive minimum {min_size} — verifier bug",
                case.name
            );
        }
    }
}

#[test]
fn exhaustive_minimum_agrees_with_known_closed_forms() {
    // min CDS of P_n is n-2 (all internal vertices), of C_n is n-2, of
    // K_{1,k} is 1 (the hub), of K_n is 0 by the empty-set-on-complete
    // convention shared with the production verifier.
    for n in 3..=9usize {
        let (p, _) = oracle::min_cds_exhaustive(&gen::path(n)).unwrap();
        assert_eq!(p, n - 2, "path {n}");
        let (c, _) = oracle::min_cds_exhaustive(&gen::cycle(n)).unwrap();
        // C_3 = K_3 falls under the empty-set-on-complete convention.
        assert_eq!(c, if n == 3 { 0 } else { n - 2 }, "cycle {n}");
        let (s, witness) = oracle::min_cds_exhaustive(&gen::star(n)).unwrap();
        assert_eq!((s, witness[0]), (1, true), "star {n}");
        let (k, _) = oracle::min_cds_exhaustive(&gen::complete(n)).unwrap();
        assert_eq!(k, 0, "complete {n}");
    }
}

#[test]
fn priority_order_is_total_and_consistent_with_production_sorting() {
    // The oracle's Vec<u64> keys must induce the same strict order as the
    // production PriorityKey on every pair, for every policy.
    use pacds_core::PriorityKey;
    let cases = random_unit_disk_cases(4242, 10);
    for case in &cases {
        let g = &case.graph;
        for policy in Policy::ALL {
            if policy == Policy::NoPruning {
                continue;
            }
            let energy = policy.needs_energy().then_some(case.energy.as_slice());
            let table = PriorityKey::build(policy, g, energy);
            for u in 0..g.n() as u32 {
                for v in 0..g.n() as u32 {
                    assert_eq!(
                        oracle::priority_lt(policy, g, energy, u, v),
                        table.lt(u, v),
                        "{}: {policy:?} order disagrees on ({u},{v})",
                        case.name
                    );
                }
            }
        }
    }
}
