//! Sample sets, medians and the `.tail` percentile rule.

/// A set of timing (or count) samples.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    v: Vec<f64>,
}

impl Samples {
    pub fn push(&mut self, x: f64) {
        self.v.push(x);
    }

    pub fn len(&self) -> usize {
        self.v.len()
    }

    pub fn is_empty(&self) -> bool {
        self.v.is_empty()
    }

    pub fn sum(&self) -> f64 {
        self.v.iter().sum()
    }

    pub fn mean(&self) -> f64 {
        if self.v.is_empty() {
            0.0
        } else {
            self.sum() / self.v.len() as f64
        }
    }

    /// Nearest-rank quantile: the smallest sample with at least `q` of the
    /// samples at or below it. 0 for an empty set.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.v.is_empty() {
            return 0.0;
        }
        let mut s = self.v.clone();
        s.sort_by(f64::total_cmp);
        s[rank(s.len(), q) - 1]
    }

    pub fn p50(&self) -> f64 {
        self.quantile(0.5)
    }
}

/// 1-based nearest rank of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly above the `q` quantile's rank among `n` samples.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// Candidate tail percentiles, highest first.
pub const TAIL_LADDER: [f64; 5] = [0.999, 0.99, 0.95, 0.9, 0.75];

/// Samples a `.tail` percentile must leave beyond it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The highest ladder percentile that leaves at least [`TAIL_MIN_BEYOND`]
/// samples beyond it when `floor` samples are taken. A workload fixes its
/// tail percentile from the sample count it guarantees per run, so every
/// run reports the same percentile whatever its actual count.
pub fn tail_quantile(floor: usize) -> f64 {
    TAIL_LADDER
        .into_iter()
        .find(|&q| beyond(floor, q) >= TAIL_MIN_BEYOND)
        .unwrap_or(0.5)
}

/// A measured `.tail`: the percentile used, its value and the samples it
/// rests on.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    pub q: f64,
    pub value: f64,
    pub samples: usize,
    pub beyond: usize,
}

/// The `.tail` of `s` for a workload guaranteeing `floor` samples.
pub fn tail(s: &Samples, floor: usize) -> Tail {
    let q = tail_quantile(floor);
    Tail {
        q,
        value: s.quantile(q),
        samples: s.len(),
        beyond: beyond(s.len(), q),
    }
}

/// Operations and the time they took, as a rate.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rate {
    pub ops: u64,
    pub ns: u128,
}

impl Rate {
    pub fn add(&mut self, ops: u64, ns: u128) {
        self.ops += ops;
        self.ns += ns;
    }

    /// Operations per second (0 for no time).
    pub fn per_s(&self) -> f64 {
        if self.ns == 0 {
            0.0
        } else {
            self.ops as f64 * 1e9 / self.ns as f64
        }
    }
}

/// Relative difference `|parts - whole| / whole` in percent.
pub fn residual_pct(parts: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        100.0 * (parts - whole).abs() / whole
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut s = Samples::default();
        for x in 1..=100 {
            s.push(f64::from(x));
        }
        assert_eq!(s.p50(), 50.0);
        assert_eq!(s.quantile(0.99), 99.0);
        assert_eq!(beyond(100, 0.99), 1);
        assert_eq!(beyond(100, 0.9), 10);
    }

    #[test]
    fn tail_quantile_leaves_ten_beyond() {
        assert_eq!(tail_quantile(200), 0.95);
        assert_eq!(tail_quantile(2000), 0.99);
        assert_eq!(tail_quantile(20_000), 0.999);
        for floor in [40, 100, 199, 200, 999, 1000, 5000] {
            assert!(
                beyond(floor, tail_quantile(floor)) >= TAIL_MIN_BEYOND,
                "floor {floor}"
            );
        }
    }
}
