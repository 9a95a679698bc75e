//! Order statistics, the tail-percentile rule, and the two small
//! deterministic primitives (RNG, hash) the workload generators use.

/// Median of a sample (mean of the middle pair for even sizes; 0 for an
/// empty sample).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile by the exclusive method — the rule of
/// Python's `statistics.quantiles(values, n=4)`, which the acceptance
/// procedure uses, so a spread computed here is the spread it sees.
/// Needs at least two values; a shorter sample has no spread.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |k: usize| {
        // Position k·(n+1)/4 on the 1-based sorted sample, clamped.
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// Interquartile distance as a share of the median (0 when there is no
/// spread to speak of).
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    match quartiles(values) {
        Some((q1, q3)) if m != 0.0 => (q3 - q1) / m.abs(),
        _ => 0.0,
    }
}

/// The percentile ladder a tail latency may be reported at, in tenths
/// of a percent (integers, so "ten samples beyond" is exact).
const LADDER_PERMILLE: [u64; 5] = [500, 900, 950, 990, 999];

/// The highest ladder percentile, at most `wanted`, that still has at
/// least ten samples beyond it — a p99 of 200 samples is two
/// observations, not a percentile. Returns `(percentile, value)`;
/// falls back to the median when even p90 is not supported.
pub fn tail_percentile(samples: &[f64], wanted: f64) -> (f64, f64) {
    if samples.is_empty() {
        return (50.0, 0.0);
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len() as u64;
    let wanted = (wanted * 10.0).round() as u64;
    let p = LADDER_PERMILLE
        .iter()
        .copied()
        .filter(|&p| p <= wanted && n * (1000 - p) >= 10 * 1000)
        .max()
        .unwrap_or(500);
    // Nearest rank.
    let rank = (n * p).div_ceil(1000).clamp(1, n);
    (p as f64 / 10.0, v[rank as usize - 1])
}

/// SplitMix64: the benchmark's own input generator, so no workload
/// shape depends on a program crate's RNG.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// An independent stream for a named sub-generator.
    pub fn fork(&self, label: &str) -> Rng {
        Rng(self.0 ^ fnv1a(label.as_bytes()))
    }
}

/// FNV-1a 64: stable across toolchains (std's `DefaultHasher` is not),
/// so an outcome hash in a checked-in baseline stays comparable.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), Some((1.0, 3.0)));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), Some((7.5, 22.5)));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        let sample = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // 15 000 samples support p99 (150 beyond) but not p99.9 when p99 is asked.
        assert_eq!(tail_percentile(&sample(15_000), 99.0), (99.0, 14_850.0));
        assert_eq!(tail_percentile(&sample(15_000), 99.9).0, 99.9);
        // 999 samples: 9.99 beyond p99 — not enough; p95 has 49.95.
        assert_eq!(tail_percentile(&sample(999), 99.0), (95.0, 950.0));
        // 100 samples: exactly ten beyond p90.
        assert_eq!(tail_percentile(&sample(100), 99.0), (90.0, 90.0));
        // 50 samples: nothing above the median is supported.
        assert_eq!(tail_percentile(&sample(50), 99.0), (50.0, 25.0));
        assert_eq!(tail_percentile(&[], 99.0), (50.0, 0.0));
    }

    #[test]
    fn rng_is_deterministic_and_forks_diverge() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut f1 = a.fork("x");
        let mut f2 = a.fork("y");
        assert_ne!(f1.next_u64(), f2.next_u64());
        assert!(a.below(10) < 10);
    }

    #[test]
    fn fnv_matches_the_published_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
