//! Table 1: read reliability for tags on objects.

use crate::report::{paper_vs_measured, percent, shape_check_line};
use crate::scenarios::{object_pass_scenario, BoxFace, ObjectPassConfig, BOX_COUNT};
use crate::Calibration;
use rfid_core::{tracking_outcome, PlacementAdvisor, ReliabilityEstimate};
use rfid_sim::TrialExecutor;

/// The paper's published Table 1 values, for side-by-side reporting.
pub const PAPER_VALUES: [(BoxFace, f64); 4] = [
    (BoxFace::Front, 0.87),
    (BoxFace::SideCloser, 0.83),
    (BoxFace::SideFarther, 0.63),
    (BoxFace::Top, 0.29),
];

/// Table 1 results: one estimate per tag location.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Result {
    /// (location, measured reliability) in paper order.
    pub locations: Vec<(BoxFace, ReliabilityEstimate)>,
    /// Cart passes per location.
    pub trials: u64,
}

impl Table1Result {
    /// The measured estimate for a location.
    #[must_use]
    pub fn estimate(&self, face: BoxFace) -> Option<&ReliabilityEstimate> {
        self.locations
            .iter()
            .find(|(f, _)| *f == face)
            .map(|(_, e)| e)
    }

    /// Average reliability across the four measured locations.
    #[must_use]
    pub fn average(&self) -> f64 {
        let sum: f64 = self.locations.iter().map(|(_, e)| e.point().value()).sum();
        sum / self.locations.len() as f64
    }

    /// The paper's finding: location matters dramatically, with the top
    /// the worst spot and the antenna-facing locations the best.
    #[must_use]
    pub fn shape_holds(&self) -> bool {
        let p = |f: BoxFace| self.estimate(f).map_or(0.0, |e| e.point().value());
        let top = p(BoxFace::Top);
        let farther = p(BoxFace::SideFarther);
        top < farther
            && farther < p(BoxFace::Front)
            && farther < p(BoxFace::SideCloser)
            && top < 0.5
    }
}

/// Runs the experiment: each location tagged on all 12 boxes, `trials`
/// cart passes (the paper used 12). Trial `i` has seed
/// `seed.wrapping_add(i)`, so results are identical for any thread count.
///
/// # Panics
///
/// Panics if `trials == 0`.
#[must_use]
pub fn run(cal: &Calibration, trials: u64, seed: u64, executor: &TrialExecutor) -> Table1Result {
    assert!(trials > 0, "at least one trial is required");
    let locations = BoxFace::ALL
        .iter()
        .map(|&face| {
            let (scenario, box_tags) = object_pass_scenario(cal, &ObjectPassConfig::single(face));
            let hits: u64 = executor.run_scenario_fold(
                &scenario,
                trials,
                seed,
                || 0u64,
                |acc, output| {
                    acc + box_tags
                        .iter()
                        .filter(|tags| tracking_outcome(&output, tags))
                        .count() as u64
                },
                |a, b| a + b,
            );
            let estimate = ReliabilityEstimate::from_counts(hits, trials * BOX_COUNT as u64)
                .expect("hits cannot exceed trials x boxes");
            (face, estimate)
        })
        .collect();
    Table1Result { locations, trials }
}

/// Renders the table plus the placement-advisor guidance the paper draws
/// from it ("determining and avoiding the worst case locations can greatly
/// improve average reliability").
#[must_use]
pub fn render(result: &Table1Result) -> String {
    let rows: Vec<(String, String, String)> = PAPER_VALUES
        .iter()
        .map(|&(face, paper)| {
            let measured = result
                .estimate(face)
                .map_or_else(|| "-".to_owned(), |e| e.to_string());
            (face.label().to_owned(), percent(paper), measured)
        })
        .chain(std::iter::once((
            "Average".to_owned(),
            "63%".to_owned(),
            percent(result.average()),
        )))
        .collect();
    let mut out = paper_vs_measured(
        &format!(
            "Table 1 — read reliability for tags on objects \
             ({} passes x {BOX_COUNT} boxes per location)",
            result.trials
        ),
        &rows,
    );

    let mut advisor = PlacementAdvisor::new();
    for (face, estimate) in &result.locations {
        advisor.add(face.label(), *estimate);
    }
    if let Some(report) = advisor.report() {
        out.push_str(&format!(
            "placement advice: avoid {:?}; average improves {} -> {} without it; \
             best pair {:?}+{:?} predicts {}\n",
            report.worst,
            percent(report.average_all.value()),
            percent(report.average_avoiding_worst.value()),
            report.recommended_pair.0,
            report.recommended_pair.1,
            percent(report.recommended_pair.2.value()),
        ));
    }
    out.push_str(&shape_check_line(
        "top << farther < front/closer",
        result.shape_holds(),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_holds_at_modest_trials() {
        let result = run(&Calibration::default(), 6, 11, &TrialExecutor::serial());
        assert!(
            result.shape_holds(),
            "{:?}",
            result
                .locations
                .iter()
                .map(|(f, e)| (f.label(), e.point().value()))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn estimates_cover_all_locations() {
        let result = run(&Calibration::default(), 2, 1, &TrialExecutor::serial());
        for face in BoxFace::ALL {
            let est = result.estimate(face).expect("location measured");
            assert_eq!(est.trials(), 2 * BOX_COUNT as u64);
        }
        assert!(result.average() > 0.0 && result.average() < 1.0);
    }

    #[test]
    fn render_includes_advice() {
        let result = run(&Calibration::default(), 3, 2, &TrialExecutor::serial());
        let text = render(&result);
        assert!(text.contains("placement advice"));
        assert!(text.contains("Top"));
        assert!(text.contains("Average"));
    }
}
