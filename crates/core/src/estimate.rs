//! Reliability estimation from repeated trials.

use crate::Probability;
use rfid_stats::{Interval, Proportion, StatsError};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A measured reliability: successes over trials, with interval estimates.
///
/// This is the "R_M" of the paper's tables.
///
/// # Examples
///
/// ```
/// use rfid_core::ReliabilityEstimate;
///
/// // Table 1, "Top": read in 3.5 of 12 passes, about 29%.
/// let est = ReliabilityEstimate::from_counts(7, 24)?;
/// assert!((est.point().value() - 0.2917).abs() < 1e-3);
/// let ci = est.wilson_95();
/// assert!(ci.low > 0.1 && ci.high < 0.55);
/// # Ok::<(), rfid_stats::StatsError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReliabilityEstimate {
    successes: u64,
    trials: u64,
}

impl ReliabilityEstimate {
    /// Builds an estimate from success/trial counts.
    ///
    /// # Errors
    ///
    /// Returns a [`StatsError`] if `trials == 0` or `successes > trials`.
    pub fn from_counts(successes: u64, trials: u64) -> Result<Self, StatsError> {
        // Validate through Proportion's rules.
        Proportion::new(successes, trials)?;
        Ok(Self { successes, trials })
    }

    /// Builds an estimate by running `trials` Bernoulli trials of `f` on
    /// the executor's threads, passing each trial's index as a seed. Trial
    /// `i` receives seed `i` on any thread, so the estimate is the same
    /// for any thread count, and the count is folded block-wise, so
    /// memory stays O(1) in `trials`.
    ///
    /// # Panics
    ///
    /// Panics if `trials == 0`.
    pub fn from_trials<F>(executor: &rfid_sim::TrialExecutor, trials: u64, f: F) -> Self
    where
        F: Fn(u64) -> bool + Sync,
    {
        assert!(trials > 0, "at least one trial is required");
        let successes = executor.run_fold(
            trials,
            || 0u64,
            |acc, i| acc + u64::from(f(i)),
            |a, b| a + b,
        );
        Self { successes, trials }
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

    /// Point estimate as a [`Probability`].
    #[must_use]
    pub fn point(&self) -> Probability {
        Probability::clamped(self.successes as f64 / self.trials as f64)
    }

    /// 95% Wilson score interval.
    #[must_use]
    pub fn wilson_95(&self) -> Interval {
        Proportion::new(self.successes, self.trials)
            .expect("counts validated at construction")
            .wilson_interval(0.95)
    }

    /// Pools this estimate with another measured under the same conditions.
    #[must_use]
    pub fn pooled(&self, other: &ReliabilityEstimate) -> ReliabilityEstimate {
        ReliabilityEstimate {
            successes: self.successes + other.successes,
            trials: self.trials + other.trials,
        }
    }
}

impl fmt::Display for ReliabilityEstimate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.0}% ({}/{})",
            self.point().value() * 100.0,
            self.successes,
            self.trials
        )
    }
}

/// A measured-vs-calculated pair, the row format of the paper's Tables 3-5.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelComparison {
    /// Row label (e.g. "2 tags, front + side").
    pub label: String,
    /// Measured reliability R_M.
    pub measured: ReliabilityEstimate,
    /// Calculated (analytical) reliability R_C.
    pub calculated: Probability,
}

impl ModelComparison {
    /// Creates a comparison row.
    #[must_use]
    pub fn new(
        label: impl Into<String>,
        measured: ReliabilityEstimate,
        calculated: Probability,
    ) -> Self {
        Self {
            label: label.into(),
            measured,
            calculated,
        }
    }

    /// Measured minus calculated (negative when the independence model is
    /// optimistic, as the paper finds for antenna redundancy).
    #[must_use]
    pub fn gap(&self) -> f64 {
        self.measured.point().value() - self.calculated.value()
    }

    /// Whether the calculated value falls inside the measured estimate's
    /// 95% interval — i.e. the independence model is statistically
    /// consistent with the measurement.
    #[must_use]
    pub fn model_consistent(&self) -> bool {
        let ci = self.measured.wilson_95();
        ci.contains(self.calculated.value())
    }
}

impl fmt::Display for ModelComparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: R_M = {}, R_C = {}",
            self.label, self.measured, self.calculated
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_counts_validates() {
        assert!(ReliabilityEstimate::from_counts(5, 4).is_err());
        assert!(ReliabilityEstimate::from_counts(0, 0).is_err());
        assert!(ReliabilityEstimate::from_counts(0, 10).is_ok());
    }

    #[test]
    fn from_trials_counts_successes() {
        let est = ReliabilityEstimate::from_trials(&rfid_sim::TrialExecutor::serial(), 10, |i| {
            i % 2 == 0
        });
        assert_eq!(est.successes(), 5);
        assert_eq!(est.trials(), 10);
        assert_eq!(est.point().value(), 0.5);
    }

    #[test]
    fn trials_receive_distinct_seeds() {
        let seen = std::sync::Mutex::new(Vec::new());
        let _ = ReliabilityEstimate::from_trials(&rfid_sim::TrialExecutor::serial(), 5, |i| {
            seen.lock().expect("no trial panicked").push(i);
            true
        });
        assert_eq!(
            seen.into_inner().expect("no trial panicked"),
            vec![0, 1, 2, 3, 4]
        );
    }

    #[test]
    fn pooling_adds() {
        let a = ReliabilityEstimate::from_counts(8, 10).unwrap();
        let b = ReliabilityEstimate::from_counts(9, 10).unwrap();
        let pooled = a.pooled(&b);
        assert_eq!(pooled.successes(), 17);
        assert_eq!(pooled.trials(), 20);
    }

    #[test]
    fn display_shows_counts() {
        let est = ReliabilityEstimate::from_counts(29, 100).unwrap();
        assert_eq!(est.to_string(), "29% (29/100)");
    }

    #[test]
    fn comparison_gap_and_consistency() {
        // Paper Table 3, antennas row: measured 86% (call it 86/100),
        // calculated 96% — the model is optimistic, gap negative.
        let measured = ReliabilityEstimate::from_counts(86, 100).unwrap();
        let calc = Probability::new(0.96).unwrap();
        let row = ModelComparison::new("2 antennas, 1 tag", measured, calc);
        assert!(row.gap() < 0.0);
        assert!(!row.model_consistent(), "96% lies outside Wilson(86/100)");

        // Tags row: measured 97%, calculated 97% — consistent.
        let measured = ReliabilityEstimate::from_counts(97, 100).unwrap();
        let calc = Probability::new(0.97).unwrap();
        let row = ModelComparison::new("1 antenna, 2 tags", measured, calc);
        assert!(row.model_consistent());
    }

    #[test]
    fn small_sample_intervals_are_wide() {
        // 12 trials, like the paper's object experiments: the interval is
        // honest about how little 12 passes pin down.
        let est = ReliabilityEstimate::from_counts(10, 12).unwrap();
        let ci = est.wilson_95();
        assert!(ci.width() > 0.2, "width = {}", ci.width());
    }
}
