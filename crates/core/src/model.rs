//! The analytical reliability model (Section 4 of the paper).

use crate::Probability;
use serde::{Deserialize, Serialize};

/// One read opportunity: a (tag, antenna) combination in the same portal
/// area, with its single-opportunity read reliability.
///
/// "We define every combination of tag and antenna in the same area as a
/// read opportunity."
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReadOpportunity {
    /// Human-readable label, e.g. "front tag x antenna 1".
    pub label: String,
    /// Probability this opportunity alone identifies the object.
    pub reliability: Probability,
}

impl ReadOpportunity {
    /// Creates a labelled opportunity.
    #[must_use]
    pub fn new(label: impl Into<String>, reliability: Probability) -> Self {
        Self {
            label: label.into(),
            reliability,
        }
    }
}

/// The paper's expected object-tracking reliability under independent read
/// opportunities:
///
/// `R_C = 1 - (1 - P_1)(1 - P_2)...(1 - P_n)`.
///
/// An empty opportunity set yields zero (no way to see the object).
///
/// # Examples
///
/// ```
/// use rfid_core::{combined_reliability, Probability};
///
/// let ps = [Probability::new(0.75)?, Probability::new(0.75)?];
/// assert!((combined_reliability(ps).value() - 0.9375).abs() < 1e-12);
/// # Ok::<(), rfid_core::ProbabilityError>(())
/// ```
#[must_use]
pub fn combined_reliability<I>(opportunities: I) -> Probability
where
    I: IntoIterator<Item = Probability>,
{
    let miss_all = opportunities
        .into_iter()
        .fold(1.0, |acc, p| acc * p.complement().value());
    Probability::clamped(1.0 - miss_all)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn p(v: f64) -> Probability {
        Probability::new(v).unwrap()
    }

    #[test]
    fn paper_table3_predictions() {
        // Table 3: front 87% + side(closer) 83% -> ~97.8%; the paper
        // reports R_C = 98% for "front + side (good)".
        let rc = combined_reliability([p(0.87), p(0.83)]);
        assert!((rc.value() - 0.9779).abs() < 1e-4);

        // Two antennas x one front tag at 87%: 1 - 0.13^2 = 98.3%.
        let rc2 = combined_reliability([p(0.87), p(0.87)]);
        assert!((rc2.value() - 0.9831).abs() < 1e-4);
    }

    #[test]
    fn paper_table4_four_tags_reach_near_certainty() {
        // Four tags per person (front/back/sides): 75%, 75%, 90%, 10%.
        let rc = combined_reliability([p(0.75), p(0.75), p(0.90), p(0.10)]);
        assert!(rc.value() > 0.994, "R_C = {rc}");
    }

    #[test]
    fn empty_set_has_zero_reliability() {
        assert_eq!(combined_reliability(std::iter::empty()), Probability::ZERO);
    }

    #[test]
    fn single_opportunity_is_itself() {
        assert_eq!(combined_reliability([p(0.63)]).value(), 0.63);
    }

    #[test]
    fn opportunity_labels_survive() {
        let opp = ReadOpportunity::new("front x ant-1", p(0.87));
        assert_eq!(opp.label, "front x ant-1");
    }

    proptest! {
        #[test]
        fn adding_an_opportunity_never_hurts(
            base in proptest::collection::vec(0.0f64..=1.0, 0..8),
            extra in 0.0f64..=1.0,
        ) {
            let ps: Vec<Probability> = base.iter().map(|&v| p(v)).collect();
            let before = combined_reliability(ps.clone());
            let mut more = ps;
            more.push(p(extra));
            let after = combined_reliability(more);
            prop_assert!(after.value() >= before.value() - 1e-12);
        }

        #[test]
        fn result_is_a_probability(values in proptest::collection::vec(0.0f64..=1.0, 0..12)) {
            let rc = combined_reliability(values.iter().map(|&v| p(v)));
            prop_assert!((0.0..=1.0).contains(&rc.value()));
        }

        #[test]
        fn dominates_the_best_single_opportunity(values in proptest::collection::vec(0.0f64..=1.0, 1..10)) {
            let best = values.iter().cloned().fold(0.0, f64::max);
            let rc = combined_reliability(values.iter().map(|&v| p(v)));
            prop_assert!(rc.value() >= best - 1e-12);
        }

    }
}
