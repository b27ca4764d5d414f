//! Figure 4: tag orientation x inter-tag distance.

use crate::report::shape_check_line;
use crate::scenarios::{spacing_scenario, OrientationCase, TAG_COUNT};
use crate::Calibration;
use rfid_sim::{run_scenario_with, ScenarioCache, TrialExecutor};
use rfid_stats::{Align, StreamSummary, Table};

/// Spacings the paper sweeps, meters.
pub const SPACINGS_M: [f64; 5] = [0.0003, 0.004, 0.010, 0.020, 0.040];

/// One (orientation, spacing) cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4Cell {
    /// Tag orientation.
    pub orientation: OrientationCase,
    /// Inter-tag spacing in meters.
    pub spacing_m: f64,
    /// Streaming summary of tags read (out of 10) across trials.
    pub tags_read: StreamSummary,
}

/// The full orientation-by-spacing grid.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4Result {
    /// All 30 cells, orientation-major.
    pub cells: Vec<Fig4Cell>,
    /// Trials per cell.
    pub trials: u64,
}

impl Fig4Result {
    /// Mean tags read for a cell.
    #[must_use]
    pub fn mean(&self, orientation: OrientationCase, spacing_m: f64) -> Option<f64> {
        self.cells
            .iter()
            .find(|c| c.orientation == orientation && c.spacing_m == spacing_m)
            .map(|c| c.tags_read.mean())
    }

    /// The paper's two findings: tight spacing interferes (for every
    /// orientation, 40 mm reads strictly more than 0.3 mm), and the
    /// end-on orientations (1 and 5) are the least reliable at wide
    /// spacing.
    #[must_use]
    pub fn shape_holds(&self) -> bool {
        let widest = SPACINGS_M[4];
        let tightest = SPACINGS_M[0];
        let spacing_matters = OrientationCase::ALL
            .iter()
            .all(|&o| self.mean(o, widest).unwrap_or(0.0) > self.mean(o, tightest).unwrap_or(0.0));
        let worst_end_on = {
            let end_on_max = OrientationCase::ALL
                .iter()
                .filter(|o| o.is_end_on())
                .map(|&o| self.mean(o, widest).unwrap_or(0.0))
                .fold(0.0, f64::max);
            OrientationCase::ALL
                .iter()
                .filter(|o| !o.is_end_on())
                .all(|&o| self.mean(o, widest).unwrap_or(0.0) > end_on_max)
        };
        spacing_matters && worst_end_on
    }
}

/// Runs the grid: `trials` passes per cell (the paper used at least 10).
/// A trial's seed depends on its cell and index only, so results are
/// identical for any thread count.
///
/// # Panics
///
/// Panics if `trials == 0`.
#[must_use]
pub fn run(cal: &Calibration, trials: u64, seed: u64, executor: &TrialExecutor) -> Fig4Result {
    assert!(trials > 0, "at least one trial is required");
    let mut cells = Vec::with_capacity(30);
    for (oi, &orientation) in OrientationCase::ALL.iter().enumerate() {
        for (si, &spacing_m) in SPACINGS_M.iter().enumerate() {
            let scenario = spacing_scenario(cal, spacing_m, orientation);
            let cache = ScenarioCache::new(&scenario);
            let tags_read = executor.run_fold(
                trials,
                StreamSummary::new,
                |mut acc, i| {
                    let trial_seed = seed
                        .wrapping_add(i)
                        .wrapping_add((oi as u64) << 32)
                        .wrapping_add((si as u64) << 40);
                    acc.push(
                        run_scenario_with(&scenario, &cache, trial_seed)
                            .tags_read()
                            .len() as f64,
                    );
                    acc
                },
                |mut a, b| {
                    a.merge(&b);
                    a
                },
            );
            cells.push(Fig4Cell {
                orientation,
                spacing_m,
                tags_read,
            });
        }
    }
    Fig4Result { cells, trials }
}

/// Renders the grid as the paper's matrix plus the minimum-safe-spacing
/// finding.
#[must_use]
pub fn render(result: &Fig4Result) -> String {
    let mut table = Table::new(vec![
        "orientation".into(),
        "0.3 mm".into(),
        "4 mm".into(),
        "10 mm".into(),
        "20 mm".into(),
        "40 mm".into(),
    ]);
    for col in 1..6 {
        table.align(col, Align::Right);
    }
    for &orientation in &OrientationCase::ALL {
        let mut cells = vec![orientation.label().to_owned()];
        for &spacing in &SPACINGS_M {
            cells.push(format!(
                "{:.1}",
                result.mean(orientation, spacing).unwrap_or(f64::NAN)
            ));
        }
        table.row(cells);
    }
    format!(
        "Figure 4 — mean tags read of {TAG_COUNT}, orientation x spacing \
         ({} passes per cell)\n\
         paper: tags need at least 20-40 mm spacing; end-on orientations \
         (1, 5) are least reliable\n{table}{}",
        result.trials,
        shape_check_line("spacing threshold + end-on worst", result.shape_holds())
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_all_cells() {
        let result = run(&Calibration::default(), 2, 3, &TrialExecutor::serial());
        assert_eq!(result.cells.len(), 30);
        assert!(result.mean(OrientationCase::Case1, 0.0003).is_some());
        assert!(result.mean(OrientationCase::Case6, 0.040).is_some());
    }

    #[test]
    fn shape_holds_at_modest_trials() {
        let result = run(&Calibration::default(), 6, 1, &TrialExecutor::serial());
        assert!(result.shape_holds());
    }

    #[test]
    fn render_contains_the_matrix() {
        let result = run(&Calibration::default(), 2, 5, &TrialExecutor::serial());
        let text = render(&result);
        assert!(text.contains("40 mm"));
        assert!(text.contains("end-on"));
    }
}
