//! Calibration-sensitivity analysis: do the paper's findings survive
//! perturbations of the fitted constants?
//!
//! Every fitted constant is pushed up and down by a physically
//! meaningful step and the Table 1 experiment re-run; the *shape*
//! (Top << Side-farther < Front/Side-closer) must survive every
//! perturbation even though the absolute numbers move. This is the
//! robustness argument behind EXPERIMENTS.md's claim that the
//! reproduction's findings are not knife-edge artifacts of calibration.

use crate::experiments::table1;
use crate::report::{percent, shape_check_line};
use crate::scenarios::BoxFace;
use crate::Calibration;
use rfid_sim::TrialExecutor;
use rfid_stats::{Align, Table};

/// One perturbation of the calibration.
#[derive(Debug, Clone)]
pub struct Perturbation {
    /// Label, e.g. "system loss +1 dB".
    pub label: String,
    /// The perturbed calibration.
    pub calibration: Calibration,
}

/// The standard perturbation set: each fitted constant, one step each way.
#[must_use]
pub fn standard_perturbations(base: &Calibration) -> Vec<Perturbation> {
    let mut out = vec![Perturbation {
        label: "baseline".to_owned(),
        calibration: base.clone(),
    }];
    let mut push = |label: &str, calibration: Calibration| {
        out.push(Perturbation {
            label: label.to_owned(),
            calibration,
        });
    };
    push(
        "system loss +1 dB",
        Calibration {
            system_loss_db: base.system_loss_db + 1.0,
            ..base.clone()
        },
    );
    push(
        "system loss -1 dB",
        Calibration {
            system_loss_db: base.system_loss_db - 1.0,
            ..base.clone()
        },
    );
    push(
        "shadowing +0.5 dB",
        Calibration {
            sigma_tag_db: base.sigma_tag_db + 0.5,
            ..base.clone()
        },
    );
    push(
        "shadowing -0.5 dB",
        Calibration {
            sigma_tag_db: (base.sigma_tag_db - 0.5).max(0.0),
            ..base.clone()
        },
    );
    push(
        "chip 2 dB deafer",
        Calibration {
            chip_sensitivity_dbm: base.chip_sensitivity_dbm + 2.0,
            ..base.clone()
        },
    );
    push(
        "chip 2 dB keener",
        Calibration {
            chip_sensitivity_dbm: base.chip_sensitivity_dbm - 2.0,
            ..base.clone()
        },
    );
    push(
        "cart 25% faster",
        Calibration {
            speed_mps: base.speed_mps * 1.25,
            ..base.clone()
        },
    );
    push(
        "side standoff +5 mm",
        Calibration {
            box_side_standoff_m: base.box_side_standoff_m + 0.005,
            ..base.clone()
        },
    );
    out
}

/// Sensitivity results: per perturbation, the Table 1 outcome.
#[derive(Debug, Clone)]
pub struct SensitivityResult {
    /// (label, table 1 result) per perturbation.
    pub rows: Vec<(String, table1::Table1Result)>,
    /// Passes per cell.
    pub trials: u64,
}

impl SensitivityResult {
    /// Fraction of perturbations preserving the Table 1 shape.
    #[must_use]
    pub fn shape_survival(&self) -> f64 {
        let holding = self
            .rows
            .iter()
            .filter(|(_, result)| result.shape_holds())
            .count();
        holding as f64 / self.rows.len() as f64
    }

    /// Whether the finding is robust: the shape survives every
    /// perturbation.
    #[must_use]
    pub fn shape_holds(&self) -> bool {
        (self.shape_survival() - 1.0).abs() < 1e-12
    }
}

/// Runs Table 1 under every standard perturbation.
///
/// # Panics
///
/// Panics if `trials == 0`.
#[must_use]
pub fn run(
    cal: &Calibration,
    trials: u64,
    seed: u64,
    executor: &TrialExecutor,
) -> SensitivityResult {
    assert!(trials > 0, "at least one trial is required");
    let rows = standard_perturbations(cal)
        .into_iter()
        .map(|perturbation| {
            perturbation.calibration.assert_plausible();
            let result = table1::run(&perturbation.calibration, trials, seed, executor);
            (perturbation.label, result)
        })
        .collect();
    SensitivityResult { rows, trials }
}

/// Renders the sensitivity matrix.
#[must_use]
pub fn render(result: &SensitivityResult) -> String {
    let mut table = Table::new(vec![
        "perturbation".into(),
        "Front".into(),
        "Closer".into(),
        "Farther".into(),
        "Top".into(),
        "shape".into(),
    ]);
    for col in 1..6 {
        table.align(col, Align::Right);
    }
    for (label, t1) in &result.rows {
        let cell = |face: BoxFace| {
            t1.estimate(face)
                .map_or_else(|| "-".to_owned(), |e| percent(e.point().value()))
        };
        table.row(vec![
            label.clone(),
            cell(BoxFace::Front),
            cell(BoxFace::SideCloser),
            cell(BoxFace::SideFarther),
            cell(BoxFace::Top),
            if t1.shape_holds() { "ok" } else { "BROKEN" }.to_owned(),
        ]);
    }
    format!(
        "Calibration sensitivity — Table 1 under perturbed constants \
         ({} passes per cell)\n{table}\
         shape survives {}% of perturbations\n{}",
        result.trials,
        (result.shape_survival() * 100.0).round(),
        shape_check_line("findings robust to calibration", result.shape_holds())
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn findings_survive_every_perturbation() {
        let result = run(&Calibration::default(), 6, 2007, &TrialExecutor::serial());
        assert!(result.shape_holds(), "{}", render(&result));
    }

    #[test]
    fn perturbations_cover_both_directions() {
        let perturbations = standard_perturbations(&Calibration::default());
        assert!(perturbations.len() >= 8);
        assert!(perturbations.iter().any(|p| p.label.contains("+1 dB")));
        assert!(perturbations.iter().any(|p| p.label.contains("-1 dB")));
        // All remain physically plausible.
        for p in &perturbations {
            p.calibration.assert_plausible();
        }
    }

    #[test]
    fn render_lists_every_perturbation() {
        let result = run(&Calibration::default(), 2, 3, &TrialExecutor::serial());
        let text = render(&result);
        assert!(text.contains("baseline"));
        assert!(text.contains("cart 25% faster"));
    }
}
