//! A validated probability newtype.

use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// Error returned when constructing a [`Probability`] outside `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbabilityError {
    value: f64,
}

impl fmt::Display for ProbabilityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "value {} is not a probability in [0, 1]", self.value)
    }
}

impl Error for ProbabilityError {}

/// A probability, statically guaranteed to lie in `[0, 1]`.
///
/// # Examples
///
/// ```
/// use rfid_core::Probability;
///
/// let p = Probability::new(0.87)?;
/// assert_eq!(p.value(), 0.87);
/// assert!((p.complement().value() - 0.13).abs() < 1e-12);
/// assert!(Probability::new(1.2).is_err());
/// # Ok::<(), rfid_core::ProbabilityError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
#[serde(try_from = "f64", into = "f64")]
pub struct Probability(f64);

impl Probability {
    /// Certain failure.
    pub const ZERO: Probability = Probability(0.0);

    /// Creates a probability.
    ///
    /// # Errors
    ///
    /// Returns [`ProbabilityError`] if `value` is NaN or outside `[0, 1]`.
    pub fn new(value: f64) -> Result<Self, ProbabilityError> {
        if value.is_finite() && (0.0..=1.0).contains(&value) {
            Ok(Probability(value))
        } else {
            Err(ProbabilityError { value })
        }
    }

    /// Creates a probability, clamping out-of-range finite values into
    /// `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `value` is NaN.
    #[must_use]
    pub fn clamped(value: f64) -> Self {
        assert!(!value.is_nan(), "probability must not be NaN");
        Probability(value.clamp(0.0, 1.0))
    }

    /// The underlying value.
    #[must_use]
    pub const fn value(self) -> f64 {
        self.0
    }

    /// `1 - p`.
    #[must_use]
    pub fn complement(self) -> Probability {
        Probability(1.0 - self.0)
    }

    /// Product of two probabilities (probability of both independent
    /// events).
    #[must_use]
    pub fn and(self, other: Probability) -> Probability {
        Probability(self.0 * other.0)
    }

    /// Probability of at least one of two independent events.
    #[must_use]
    pub fn or(self, other: Probability) -> Probability {
        Probability(1.0 - (1.0 - self.0) * (1.0 - other.0))
    }
}

impl fmt::Display for Probability {
    /// Renders as a percentage with one decimal, like the paper's tables.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1}%", self.0 * 100.0)
    }
}

impl TryFrom<f64> for Probability {
    type Error = ProbabilityError;

    fn try_from(value: f64) -> Result<Self, Self::Error> {
        Probability::new(value)
    }
}

impl From<Probability> for f64 {
    fn from(p: Probability) -> f64 {
        p.value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn construction_validates() {
        assert!(Probability::new(0.0).is_ok());
        assert!(Probability::new(1.0).is_ok());
        assert!(Probability::new(-0.01).is_err());
        assert!(Probability::new(1.01).is_err());
        assert!(Probability::new(f64::NAN).is_err());
        assert!(Probability::new(f64::INFINITY).is_err());
    }

    #[test]
    fn clamping_saturates() {
        assert_eq!(Probability::clamped(1.7).value(), 1.0);
        assert_eq!(Probability::clamped(-3.0), Probability::ZERO);
        assert_eq!(Probability::clamped(0.5).value(), 0.5);
    }

    #[test]
    #[should_panic(expected = "must not be NaN")]
    fn clamping_rejects_nan() {
        let _ = Probability::clamped(f64::NAN);
    }

    #[test]
    fn display_matches_paper_style() {
        assert_eq!(Probability::new(0.63).unwrap().to_string(), "63.0%");
        assert_eq!(Probability::new(1.0).unwrap().to_string(), "100.0%");
    }

    #[test]
    fn or_is_the_independence_formula() {
        let a = Probability::new(0.8).unwrap();
        let b = Probability::new(0.5).unwrap();
        assert!((a.or(b).value() - 0.9).abs() < 1e-12);
        assert!((a.and(b).value() - 0.4).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn complement_involutes(v in 0.0f64..=1.0) {
            let p = Probability::new(v).unwrap();
            prop_assert!((p.complement().complement().value() - v).abs() < 1e-12);
        }

        #[test]
        fn or_never_decreases(a in 0.0f64..=1.0, b in 0.0f64..=1.0) {
            let pa = Probability::new(a).unwrap();
            let pb = Probability::new(b).unwrap();
            let or = pa.or(pb);
            prop_assert!(or.value() >= pa.value() - 1e-12);
            prop_assert!(or.value() >= pb.value() - 1e-12);
            prop_assert!(or.value() <= 1.0);
        }

        #[test]
        fn and_never_increases(a in 0.0f64..=1.0, b in 0.0f64..=1.0) {
            let pa = Probability::new(a).unwrap();
            let pb = Probability::new(b).unwrap();
            prop_assert!(pa.and(pb).value() <= pa.value() + 1e-12);
        }
    }
}
