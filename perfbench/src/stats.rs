//! Sample statistics: nearest-rank percentiles that refuse a tail the
//! sample cannot support, medians, and input digests.

use rfid_sim::mix64;
use std::time::Duration;

/// Fewest samples that must lie beyond a percentile before it may be
/// reported. A p99 therefore needs at least 1,000 samples.
pub const MIN_BEYOND: usize = 10;

/// Percentiles tried, highest first, by [`highest_supported`], in parts
/// per ten thousand.
const LADDER: [u32; 6] = [9990, 9900, 9500, 9000, 7500, 5000];

/// The nearest-rank percentile `per_10k` / 10,000 of `sorted` (ascending),
/// or `None` when fewer than [`MIN_BEYOND`] samples lie beyond it.
#[must_use]
pub fn percentile(sorted: &[f64], per_10k: u32) -> Option<f64> {
    let n = sorted.len();
    let rank = (n as u64 * u64::from(per_10k)).div_ceil(10_000).max(1) as usize;
    (rank <= n && n - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// The highest percentile of [`LADDER`] that `sorted` supports, as
/// `(per_10k, value)`.
#[must_use]
pub fn highest_supported(sorted: &[f64]) -> Option<(u32, f64)> {
    LADDER
        .iter()
        .find_map(|&q| percentile(sorted, q).map(|value| (q, value)))
}

/// `"p99"`, `"p99.9"`, ... for a percentile in parts per ten thousand.
#[must_use]
pub fn label(per_10k: u32) -> String {
    if per_10k.is_multiple_of(100) {
        format!("p{}", per_10k / 100)
    } else {
        format!("p{}", f64::from(per_10k) / 100.0)
    }
}

/// Median of a small set of repeated measurements (the mean of the two
/// middle values when the count is even); `None` when empty.
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// A duration in milliseconds.
#[must_use]
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A duration in microseconds.
#[must_use]
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Throughput over repeated units of work, each `(items, seconds)`:
/// total items over total time, so a run whose units alternate between
/// two speeds reports their time-weighted rate rather than either one.
#[must_use]
pub fn aggregate_rate(units: &[(f64, f64)]) -> f64 {
    let (items, seconds) = units
        .iter()
        .fold((0.0, 0.0), |(i, s), &(items, secs)| (i + items, s + secs));
    if seconds > 0.0 {
        items / seconds
    } else {
        0.0
    }
}

/// Each unit's own rate, for the record.
#[must_use]
pub fn unit_rates(units: &[(f64, f64)]) -> Vec<f64> {
    units.iter().map(|&(items, secs)| items / secs).collect()
}

/// A growing sample of one timing, sorted on demand.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    pub fn push(&mut self, value: f64) {
        self.values.push(value);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
    }

    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    #[must_use]
    pub fn sorted(&self) -> Vec<f64> {
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        sorted
    }

    #[must_use]
    pub fn percentile(&self, per_10k: u32) -> Option<f64> {
        percentile(&self.sorted(), per_10k)
    }

    #[must_use]
    pub fn sum(&self) -> f64 {
        self.values.iter().fold(0.0, |acc, v| acc + v)
    }

    /// Every value multiplied by `factor`: the same sample in another unit.
    #[must_use]
    pub fn scaled(&self, factor: f64) -> Self {
        Self {
            values: self.values.iter().map(|v| v * factor).collect(),
        }
    }
}

/// An order-sensitive 64-bit digest of generated inputs, so two runs can
/// show they were fed identical inputs.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0x6a09_e667_f3bc_c908)
    }
}

impl Digest {
    pub fn word(&mut self, word: u64) {
        self.0 = mix64(self.0 ^ mix64(word));
    }

    pub fn real(&mut self, value: f64) {
        self.word(value.to_bits());
    }

    #[must_use]
    pub fn value(self) -> u64 {
        self.0
    }
}

/// SplitMix64 over [`mix64`]: the benchmark's input generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Self {
        Self(mix64(seed ^ mix64(stream)))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix64(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (((self.next_u64() >> 32) * n as u64) >> 32) as usize
    }
}

/// Zipf-distributed picks over `0..n`: rank `k` (1-based) is drawn with
/// weight `k^-exponent`, and ranks map to items through a seeded
/// permutation so the hot items differ per seed.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
    item_of_rank: Vec<usize>,
}

impl Zipf {
    #[must_use]
    pub fn new(n: usize, exponent: f64, rng: &mut Rng) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 1..=n {
            total += (rank as f64).powf(-exponent);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        let mut item_of_rank: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            item_of_rank.swap(i, rng.below(i + 1));
        }
        Self { cdf, item_of_rank }
    }

    pub fn pick(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        let rank = self
            .cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1);
        self.item_of_rank[rank]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(percentile(&ramp(999), 9900), None);
        assert_eq!(percentile(&ramp(1000), 9900), Some(990.0));
        assert_eq!(percentile(&ramp(5000), 9900), Some(4950.0));
    }

    #[test]
    fn every_reported_percentile_has_ten_samples_beyond_it() {
        for n in 1..3000 {
            let sorted = ramp(n);
            for q in LADDER {
                if let Some(value) = percentile(&sorted, q) {
                    let beyond = sorted.iter().filter(|&&v| v > value).count();
                    assert!(beyond >= MIN_BEYOND, "n={n} q={q} beyond={beyond}");
                }
            }
        }
    }

    #[test]
    fn highest_supported_picks_the_top_rung_with_ten_beyond() {
        assert_eq!(highest_supported(&ramp(19)), None);
        assert_eq!(highest_supported(&ramp(20)), Some((5000, 10.0)));
        assert_eq!(highest_supported(&ramp(100)), Some((9000, 90.0)));
        assert_eq!(highest_supported(&ramp(999)).map(|(q, _)| q), Some(9500));
        assert_eq!(highest_supported(&ramp(1000)), Some((9900, 990.0)));
        assert_eq!(highest_supported(&ramp(10_000)), Some((9990, 9990.0)));
        assert_eq!(label(9900), "p99");
        assert_eq!(label(9990), "p99.9");
    }

    #[test]
    fn aggregate_rate_weights_units_by_time() {
        assert_eq!(aggregate_rate(&[]), 0.0);
        // 100 items in 1 s and 100 items in 3 s: 200 items in 4 s.
        assert_eq!(aggregate_rate(&[(100.0, 1.0), (100.0, 3.0)]), 50.0);
        assert_eq!(unit_rates(&[(100.0, 1.0), (100.0, 4.0)]), vec![100.0, 25.0]);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn generators_replay_per_seed() {
        let draw = |seed| {
            let mut rng = Rng::new(seed, 1);
            let zipf = Zipf::new(64, 1.0, &mut rng);
            (0..32).map(|_| zipf.pick(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(5), draw(5));
        assert_ne!(draw(5), draw(6));
        assert!(draw(5).iter().all(|&i| i < 64));
    }
}
