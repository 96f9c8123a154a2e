//! Monte-Carlo trial execution.
//!
//! Each trial gets its own ChaCha8 RNG seeded from `(master_seed,
//! trial_index)`, so a trial's result depends only on its index, never on
//! which trials ran before it.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Runs `trials` independent evaluations of `f` and collects the results
/// in trial order.
///
/// `f` receives the trial index and a deterministic per-trial RNG.
pub fn run_trials<T, F>(master_seed: u64, trials: usize, f: F) -> Vec<T>
where
    F: Fn(usize, &mut ChaCha8Rng) -> T,
{
    (0..trials)
        .map(|i| {
            let mut rng = trial_rng(master_seed, i);
            f(i, &mut rng)
        })
        .collect()
}

/// The deterministic RNG of trial `i` under `master_seed`.
pub fn trial_rng(master_seed: u64, i: usize) -> ChaCha8Rng {
    // SplitMix64-style mixing keeps nearby (seed, index) pairs uncorrelated.
    let mut z = master_seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    ChaCha8Rng::seed_from_u64(z)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn results_are_in_trial_order_and_deterministic() {
        let a = run_trials(7, 32, |i, rng| (i, rng.random_range(0..1000u32)));
        let b = run_trials(7, 32, |i, rng| (i, rng.random_range(0..1000u32)));
        assert_eq!(a, b);
        for (i, (idx, _)) in a.iter().enumerate() {
            assert_eq!(i, *idx);
        }
    }

    #[test]
    fn different_master_seeds_decorrelate() {
        let a = run_trials(1, 16, |_, rng| rng.random_range(0..u64::MAX));
        let b = run_trials(2, 16, |_, rng| rng.random_range(0..u64::MAX));
        assert_ne!(a, b);
    }

    #[test]
    fn different_trials_get_different_streams() {
        let vals = run_trials(9, 64, |_, rng| rng.random_range(0..u64::MAX));
        let uniq: std::collections::HashSet<_> = vals.iter().collect();
        assert_eq!(uniq.len(), vals.len());
    }

    #[test]
    fn zero_trials_is_fine() {
        let out: Vec<u32> = run_trials(0, 0, |_, _| 1);
        assert!(out.is_empty());
    }
}
