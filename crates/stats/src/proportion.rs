//! Success-proportion estimates with confidence intervals.

use crate::StatsError;
use std::fmt;

/// A closed interval `[low, high]` on the real line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Lower endpoint.
    pub low: f64,
    /// Upper endpoint.
    pub high: f64,
}

impl Interval {
    /// Width of the interval.
    #[must_use]
    pub fn width(&self) -> f64 {
        self.high - self.low
    }

    /// Whether `x` lies inside the interval (inclusive).
    #[must_use]
    pub fn contains(&self, x: f64) -> bool {
        self.low <= x && x <= self.high
    }
}

/// A Bernoulli success proportion: `successes` out of `trials`.
///
/// All of the paper's Tables 1-5 report read/tracking reliabilities of this
/// form (e.g. "29%" for top-mounted tags over 12 trials).
///
/// # Examples
///
/// ```
/// use rfid_stats::Proportion;
///
/// let p = Proportion::new(9, 12)?;
/// assert_eq!(p.point(), 0.75);
/// assert_eq!(format!("{p}"), "75%");
/// # Ok::<(), rfid_stats::StatsError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Proportion {
    successes: u64,
    trials: u64,
}

impl Proportion {
    /// Creates a proportion from success and trial counts.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::ZeroTrials`] when `trials == 0` and
    /// [`StatsError::SuccessesExceedTrials`] when `successes > trials`.
    pub fn new(successes: u64, trials: u64) -> Result<Self, StatsError> {
        if trials == 0 {
            return Err(StatsError::ZeroTrials);
        }
        if successes > trials {
            return Err(StatsError::SuccessesExceedTrials { successes, trials });
        }
        Ok(Self { successes, trials })
    }

    /// Number of successes.
    #[must_use]
    pub fn successes(&self) -> u64 {
        self.successes
    }

    /// Number of trials.
    #[must_use]
    pub fn trials(&self) -> u64 {
        self.trials
    }

    /// Maximum-likelihood point estimate `successes / trials`.
    #[must_use]
    pub fn point(&self) -> f64 {
        self.successes as f64 / self.trials as f64
    }

    /// Wilson score interval at the given confidence level.
    ///
    /// The Wilson interval behaves sensibly at the extremes (0% and 100%
    /// observed reliability), which RFID measurements hit routinely — the
    /// paper records both 0% and 100% cells.
    ///
    /// # Panics
    ///
    /// Panics if `confidence` is not in `(0, 1)`.
    #[must_use]
    pub fn wilson_interval(&self, confidence: f64) -> Interval {
        assert!(
            confidence > 0.0 && confidence < 1.0,
            "confidence must be in (0, 1)"
        );
        let z = standard_normal_quantile(0.5 + confidence / 2.0);
        let n = self.trials as f64;
        let p = self.point();
        let z2 = z * z;
        let denom = 1.0 + z2 / n;
        let center = (p + z2 / (2.0 * n)) / denom;
        let half = (z / denom) * ((p * (1.0 - p) / n) + z2 / (4.0 * n * n)).sqrt();
        // At the extremes the exact bound equals the point estimate;
        // snap it there so rounding can never exclude the observed value.
        let low = if self.successes == 0 {
            0.0
        } else {
            (center - half).max(0.0)
        };
        let high = if self.successes == self.trials {
            1.0
        } else {
            (center + half).min(1.0)
        };
        Interval { low, high }
    }

    /// Pools two proportions measured under the same conditions.
    #[must_use]
    pub fn pooled(&self, other: &Proportion) -> Proportion {
        Proportion {
            successes: self.successes + other.successes,
            trials: self.trials + other.trials,
        }
    }
}

impl fmt::Display for Proportion {
    /// Formats as a rounded percentage, matching the paper's tables.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.0}%", self.point() * 100.0)
    }
}

/// Inverse CDF of the standard normal distribution.
///
/// Acklam's rational approximation; absolute error below 1.2e-9 over the open
/// unit interval, far more precision than reliability reporting needs.
///
/// # Panics
///
/// Panics if `p` is not in `(0, 1)`.
#[must_use]
pub(crate) fn standard_normal_quantile(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "quantile rank must be in (0, 1)");
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn construction_validates() {
        assert_eq!(Proportion::new(1, 0), Err(StatsError::ZeroTrials));
        assert!(matches!(
            Proportion::new(4, 3),
            Err(StatsError::SuccessesExceedTrials { .. })
        ));
        assert!(Proportion::new(0, 1).is_ok());
        assert!(Proportion::new(1, 1).is_ok());
    }

    #[test]
    fn display_matches_paper_style() {
        assert_eq!(Proportion::new(29, 100).unwrap().to_string(), "29%");
        assert_eq!(Proportion::new(12, 12).unwrap().to_string(), "100%");
    }

    #[test]
    fn normal_quantile_reference_values() {
        // Known values: z(0.975) = 1.959964, z(0.5) = 0, z(0.95) = 1.644854.
        assert!((standard_normal_quantile(0.975) - 1.959964).abs() < 1e-5);
        assert!(standard_normal_quantile(0.5).abs() < 1e-9);
        assert!((standard_normal_quantile(0.95) - 1.644854).abs() < 1e-5);
        assert!((standard_normal_quantile(0.025) + 1.959964).abs() < 1e-5);
    }

    #[test]
    fn wilson_interval_known_case() {
        // 8/10 at 95%: Wilson interval approximately [0.490, 0.943].
        let ci = Proportion::new(8, 10).unwrap().wilson_interval(0.95);
        assert!((ci.low - 0.490).abs() < 0.01, "low = {}", ci.low);
        assert!((ci.high - 0.943).abs() < 0.01, "high = {}", ci.high);
    }

    #[test]
    fn wilson_interval_is_proper_at_extremes() {
        let zero = Proportion::new(0, 20).unwrap().wilson_interval(0.95);
        assert_eq!(zero.low, 0.0);
        assert!(zero.high > 0.0 && zero.high < 0.3);
        let full = Proportion::new(20, 20).unwrap().wilson_interval(0.95);
        assert_eq!(full.high, 1.0);
        assert!(full.low > 0.7);
    }

    #[test]
    fn pooling_adds_counts() {
        let a = Proportion::new(3, 10).unwrap();
        let b = Proportion::new(7, 10).unwrap();
        let pooled = a.pooled(&b);
        assert_eq!(pooled.successes(), 10);
        assert_eq!(pooled.trials(), 20);
    }

    proptest! {
        #[test]
        fn wilson_contains_point_estimate(s in 0u64..50, extra in 1u64..50) {
            let trials = s + extra;
            let p = Proportion::new(s, trials).unwrap();
            let ci = p.wilson_interval(0.95);
            prop_assert!(ci.contains(p.point()));
            prop_assert!(ci.low >= 0.0 && ci.high <= 1.0);
        }

        #[test]
        fn more_trials_narrow_the_interval(s in 1u64..10) {
            let narrow = Proportion::new(s * 10, 100).unwrap().wilson_interval(0.95);
            let wide = Proportion::new(s, 10).unwrap().wilson_interval(0.95);
            prop_assert!(narrow.width() < wide.width());
        }

        #[test]
        fn higher_confidence_widens_the_interval(s in 0u64..20, extra in 1u64..20) {
            let p = Proportion::new(s, s + extra).unwrap();
            let ci90 = p.wilson_interval(0.90);
            let ci99 = p.wilson_interval(0.99);
            prop_assert!(ci99.width() >= ci90.width());
        }

        #[test]
        fn normal_quantile_is_monotone(p1 in 0.001f64..0.999, p2 in 0.001f64..0.999) {
            let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
            prop_assert!(standard_normal_quantile(lo) <= standard_normal_quantile(hi) + 1e-9);
        }
    }
}
