//! Quantile estimation.
//!
//! Uses the "type 7" linear-interpolation definition (the default in R and
//! NumPy): for a sorted sample `x[0..n]` and rank `p`, the quantile is the
//! value at fractional index `p * (n - 1)`.

use crate::StatsError;

/// Lower quartile, median, and upper quartile of a sample.
///
/// The paper's Figures 2 and 4 report exactly these three statistics for each
/// experimental cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    /// 25th percentile.
    pub lower: f64,
    /// 50th percentile.
    pub median: f64,
    /// 75th percentile.
    pub upper: f64,
}

/// Computes the `p`-quantile of `samples` (unsorted input is fine).
///
/// Samples are ordered by IEEE `total_cmp`, so `-0.0` sorts before
/// `+0.0` deterministically.
///
/// # Errors
///
/// Returns [`StatsError::EmptyInput`] if `samples` is empty,
/// [`StatsError::OutOfRange`] if `p` is not in `[0, 1]` or is NaN, and
/// [`StatsError::NanSample`] if any sample is NaN (NaN has no rank).
///
/// # Examples
///
/// ```
/// let q = rfid_stats::quantile(&[1.0, 2.0, 3.0, 4.0], 0.5).unwrap();
/// assert_eq!(q, 2.5);
/// ```
pub fn quantile(samples: &[f64], p: f64) -> Result<f64, StatsError> {
    if samples.is_empty() {
        return Err(StatsError::EmptyInput);
    }
    if !(0.0..=1.0).contains(&p) {
        return Err(StatsError::OutOfRange {
            value: format!("{p}"),
        });
    }
    if samples.iter().any(|x| x.is_nan()) {
        return Err(StatsError::NanSample);
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(quantile_sorted(&sorted, p))
}

/// Computes the `p`-quantile of an already-sorted sample.
///
/// This is the allocation-free building block behind [`quantile`]; use it when
/// computing many quantiles of the same data. It is total: an empty
/// slice returns NaN (documented, instead of the historical
/// out-of-bounds panic in release builds), a single sample is every
/// quantile, and `p` is clamped to `[0, 1]`. Callers who need a typed
/// error for the empty case should use [`quantile`].
#[must_use]
pub fn quantile_sorted(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return f64::NAN;
    }
    if n == 1 {
        return sorted[0];
    }
    let idx = p.clamp(0.0, 1.0) * (n - 1) as f64;
    let lo = idx.floor() as usize;
    let hi = idx.ceil() as usize;
    if lo == hi || sorted[lo] == sorted[hi] {
        // The equal-endpoints case avoids a 1-ulp interpolation wobble
        // (v*(1-f) + v*f need not round back to exactly v).
        sorted[lo]
    } else {
        let frac = idx - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Computes the median of `samples`.
///
/// # Errors
///
/// Returns [`StatsError::EmptyInput`] if `samples` is empty and
/// [`StatsError::NanSample`] if any sample is NaN.
pub fn median(samples: &[f64]) -> Result<f64, StatsError> {
    quantile(samples, 0.5)
}

/// Computes lower quartile, median, and upper quartile in one pass.
///
/// # Errors
///
/// Returns [`StatsError::EmptyInput`] if `samples` is empty and
/// [`StatsError::NanSample`] if any sample is NaN.
///
/// # Examples
///
/// ```
/// let q = rfid_stats::quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
/// assert_eq!(q.median, 3.0);
/// assert_eq!(q.lower, 2.0);
/// assert_eq!(q.upper, 4.0);
/// ```
pub fn quartiles(samples: &[f64]) -> Result<Quartiles, StatsError> {
    if samples.is_empty() {
        return Err(StatsError::EmptyInput);
    }
    if samples.iter().any(|x| x.is_nan()) {
        return Err(StatsError::NanSample);
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(Quartiles {
        lower: quantile_sorted(&sorted, 0.25),
        median: quantile_sorted(&sorted, 0.5),
        upper: quantile_sorted(&sorted, 0.75),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn single_sample_is_every_quantile() {
        for p in [0.0, 0.25, 0.5, 1.0] {
            assert_eq!(quantile(&[7.5], p).unwrap(), 7.5);
        }
    }

    #[test]
    fn endpoints_are_min_and_max() {
        let data = [3.0, 1.0, 2.0, 9.0, -4.0];
        assert_eq!(quantile(&data, 0.0).unwrap(), -4.0);
        assert_eq!(quantile(&data, 1.0).unwrap(), 9.0);
    }

    #[test]
    fn median_of_even_sample_interpolates() {
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]).unwrap(), 2.5);
    }

    #[test]
    fn empty_input_is_an_error() {
        assert_eq!(quantile(&[], 0.5), Err(StatsError::EmptyInput));
        assert_eq!(quartiles(&[]), Err(StatsError::EmptyInput));
    }

    #[test]
    fn out_of_range_rank_is_an_error() {
        assert!(matches!(
            quantile(&[1.0], 1.5),
            Err(StatsError::OutOfRange { .. })
        ));
        assert!(matches!(
            quantile(&[1.0], -0.1),
            Err(StatsError::OutOfRange { .. })
        ));
    }

    #[test]
    fn nan_samples_are_a_typed_error_not_a_panic() {
        assert_eq!(quantile(&[1.0, f64::NAN], 0.5), Err(StatsError::NanSample));
        assert_eq!(quartiles(&[f64::NAN]), Err(StatsError::NanSample));
        assert_eq!(median(&[0.0, f64::NAN, 2.0]), Err(StatsError::NanSample));
    }

    #[test]
    fn quantile_sorted_is_total_on_empty_input() {
        // Historically an out-of-bounds panic in release builds; now a
        // documented NaN.
        assert!(quantile_sorted(&[], 0.5).is_nan());
        assert!(quantile_sorted(&[], 0.0).is_nan());
    }

    #[test]
    fn all_equal_samples_have_degenerate_quartiles() {
        let q = quartiles(&[4.2; 9]).unwrap();
        assert_eq!(q.lower, 4.2);
        assert_eq!(q.median, 4.2);
        assert_eq!(q.upper, 4.2);
    }

    #[test]
    fn signed_zeros_order_deterministically() {
        // total_cmp puts -0.0 before +0.0, so the endpoints are exact
        // down to the sign bit.
        let q0 = quantile(&[0.0, -0.0], 0.0).unwrap();
        let q1 = quantile(&[0.0, -0.0], 1.0).unwrap();
        assert_eq!(q0.to_bits(), (-0.0f64).to_bits());
        assert_eq!(q1.to_bits(), 0.0f64.to_bits());
    }

    proptest! {
        #[test]
        fn quantiles_are_ordered(mut data in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
            let q = quartiles(&data).unwrap();
            prop_assert!(q.lower <= q.median);
            prop_assert!(q.median <= q.upper);
            data.sort_by(|a, b| a.partial_cmp(b).unwrap());
            prop_assert!(q.lower >= data[0]);
            prop_assert!(q.upper <= *data.last().unwrap());
        }

        #[test]
        fn quantile_is_monotone_in_p(data in proptest::collection::vec(-1e6f64..1e6, 1..100),
                                     p1 in 0.0f64..1.0, p2 in 0.0f64..1.0) {
            let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
            let qlo = quantile(&data, lo).unwrap();
            let qhi = quantile(&data, hi).unwrap();
            prop_assert!(qlo <= qhi);
        }

        #[test]
        fn quantile_is_within_sample_bounds(data in proptest::collection::vec(-1e3f64..1e3, 1..100),
                                            p in 0.0f64..1.0) {
            let q = quantile(&data, p).unwrap();
            let min = data.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = data.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(q >= min - 1e-9 && q <= max + 1e-9);
        }
    }
}
