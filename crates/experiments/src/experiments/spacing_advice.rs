//! Section 3's deployment guidance: the minimum safe inter-tag spacing.
//!
//! "Our results show that, depending on orientation, tags require at
//! least 20 to 40 mm spacing between them to operate in a reliable
//! fashion." This experiment feeds the Figure 4 curves into the
//! `rfid-core` spacing advisor and reports the threshold per orientation.

use crate::experiments::fig4::{self, Fig4Result, SPACINGS_M};
use crate::report::shape_check_line;
use crate::scenarios::{OrientationCase, TAG_COUNT};
use crate::Calibration;
use rfid_core::{min_safe_spacing, Probability};
use rfid_sim::TrialExecutor;
use rfid_stats::{Align, Table};

/// Per-orientation minimum safe spacing.
#[derive(Debug, Clone, PartialEq)]
pub struct SpacingAdvice {
    /// (orientation, minimum safe spacing in meters if reachable).
    pub thresholds: Vec<(OrientationCase, Option<f64>)>,
}

impl SpacingAdvice {
    /// The paper's guidance: for the reliable (broadside) orientations
    /// the minimum safe spacing falls in the 20-40 mm range.
    #[must_use]
    pub fn shape_holds(&self) -> bool {
        self.thresholds
            .iter()
            .filter(|(o, _)| !o.is_end_on())
            .all(|(_, t)| matches!(t, Some(m) if (0.015..=0.045).contains(m)))
    }
}

/// Derives the advice from a Figure 4 run.
#[must_use]
pub fn from_fig4(fig4: &Fig4Result) -> SpacingAdvice {
    let thresholds = OrientationCase::ALL
        .iter()
        .map(|&orientation| {
            let curve: Vec<(f64, Probability)> = SPACINGS_M
                .iter()
                .map(|&s| {
                    let mean = fig4.mean(orientation, s).unwrap_or(0.0);
                    (s, Probability::clamped(mean / TAG_COUNT as f64))
                })
                .collect();
            (orientation, min_safe_spacing(&curve, 0.9))
        })
        .collect();
    SpacingAdvice { thresholds }
}

/// Runs Figure 4 and derives the advice.
///
/// # Panics
///
/// Panics if `trials == 0`.
#[must_use]
pub fn run(cal: &Calibration, trials: u64, seed: u64, executor: &TrialExecutor) -> SpacingAdvice {
    from_fig4(&fig4::run(cal, trials, seed, executor))
}

/// Renders the advice table.
#[must_use]
pub fn render(advice: &SpacingAdvice) -> String {
    let mut table = Table::new(vec!["orientation".into(), "min safe spacing".into()]);
    table.align(1, Align::Right);
    for (orientation, threshold) in &advice.thresholds {
        table.row(vec![
            orientation.label().to_owned(),
            threshold.map_or_else(
                || "not reached in sweep".to_owned(),
                |m| format!("{:.0} mm", m * 1000.0),
            ),
        ]);
    }
    format!(
        "Section 3 guidance — minimum safe inter-tag spacing \
         (paper: at least 20-40 mm depending on orientation)\n{table}{}",
        shape_check_line(
            "broadside orientations safe at 20-40 mm",
            advice.shape_holds()
        )
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn broadside_orientations_need_twenty_to_forty_mm() {
        let advice = run(&Calibration::default(), 6, 31, &TrialExecutor::serial());
        assert!(
            advice.shape_holds(),
            "{:?}",
            advice
                .thresholds
                .iter()
                .map(|(o, t)| (o.label(), t.map(|m| m * 1000.0)))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn render_lists_every_orientation() {
        let advice = run(&Calibration::default(), 2, 3, &TrialExecutor::serial());
        let text = render(&advice);
        for case in OrientationCase::ALL {
            assert!(text.contains(case.label()));
        }
    }
}
