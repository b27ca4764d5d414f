//! The paper's future work, implemented: "Future extensions of this work
//! involve experimenting with active tags, and tag reliability for
//! different tag designs."
//!
//! Three tag builds are compared on the paper's own workloads:
//!
//! * the **baseline single dipole** (the paper's Symbol tags),
//! * a **dual-dipole** design (orthogonal elements, no orientation null),
//! * a **battery-assisted** (semi-active) tag whose chip does not depend
//!   on harvested power — the closest protocol-compatible stand-in for
//!   an active tag.

use crate::report::{paper_vs_measured, shape_check_line};
use crate::scenarios::{
    read_range_scenario_with_chip, spacing_scenario_with_chip, OrientationCase, TAG_COUNT,
};
use crate::Calibration;
use rfid_phys::TagChip;
use rfid_sim::TrialExecutor;

/// The tag builds under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TagBuild {
    /// The paper's single-dipole passive tag.
    Baseline,
    /// Orthogonal dual-dipole passive tag.
    DualDipole,
    /// Battery-assisted passive (semi-active) tag.
    BatteryAssisted,
}

impl TagBuild {
    /// All builds, baseline first.
    pub const ALL: [TagBuild; 3] = [
        TagBuild::Baseline,
        TagBuild::DualDipole,
        TagBuild::BatteryAssisted,
    ];

    /// Display label.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            TagBuild::Baseline => "single dipole (paper)",
            TagBuild::DualDipole => "dual dipole",
            TagBuild::BatteryAssisted => "battery-assisted",
        }
    }

    /// The chip/antenna build.
    #[must_use]
    pub fn chip(&self, cal: &Calibration) -> TagChip {
        match self {
            TagBuild::Baseline => cal.chip(),
            TagBuild::DualDipole => TagChip {
                antenna_pattern: rfid_phys::Pattern::DualDipole,
                ..cal.chip()
            },
            TagBuild::BatteryAssisted => TagChip::battery_assisted(),
        }
    }
}

/// Results of the tag-design study.
#[derive(Debug, Clone, PartialEq)]
pub struct TagDesignResult {
    /// Mean tags read (of 10) in the end-on orientation (case 1, 40 mm)
    /// per build.
    pub end_on: Vec<(TagBuild, f64)>,
    /// Mean tags read (of 20) at 6 m per build (range extension).
    pub long_range: Vec<(TagBuild, f64)>,
    /// Trials per cell.
    pub trials: u64,
}

impl TagDesignResult {
    fn value(table: &[(TagBuild, f64)], build: TagBuild) -> f64 {
        table
            .iter()
            .find(|(b, _)| *b == build)
            .map_or(0.0, |(_, v)| *v)
    }

    /// The expected physics: the dual dipole repairs the orientation
    /// null, and battery assistance extends range far beyond the passive
    /// threshold; each build strictly beats the baseline on its axis.
    #[must_use]
    pub fn shape_holds(&self) -> bool {
        let end_on_base = Self::value(&self.end_on, TagBuild::Baseline);
        let end_on_dual = Self::value(&self.end_on, TagBuild::DualDipole);
        let range_base = Self::value(&self.long_range, TagBuild::Baseline);
        let range_bap = Self::value(&self.long_range, TagBuild::BatteryAssisted);
        end_on_dual > end_on_base + 2.0
            && end_on_dual > TAG_COUNT as f64 * 0.8
            && range_bap > range_base + 5.0
    }
}

/// Runs the study.
///
/// # Panics
///
/// Panics if `trials == 0`.
#[must_use]
pub fn run(cal: &Calibration, trials: u64, seed: u64, executor: &TrialExecutor) -> TagDesignResult {
    assert!(trials > 0, "at least one trial is required");
    let end_on = TagBuild::ALL
        .iter()
        .map(|&build| {
            let scenario =
                spacing_scenario_with_chip(cal, 0.040, OrientationCase::Case1, build.chip(cal));
            let total = executor.run_scenario_fold(
                &scenario,
                trials,
                seed,
                || 0u64,
                |acc, output| acc + output.tags_read().len() as u64,
                |a, b| a + b,
            );
            (build, total as f64 / trials as f64)
        })
        .collect();
    let long_range = TagBuild::ALL
        .iter()
        .map(|&build| {
            let scenario = read_range_scenario_with_chip(cal, 6.0, build.chip(cal));
            let total = executor.run_round_fold(
                &scenario,
                0,
                0,
                0.0,
                trials,
                seed.wrapping_add(0x40),
                || 0u64,
                |acc, log| acc + log.reads.len() as u64,
                |a, b| a + b,
            );
            (build, total as f64 / trials as f64)
        })
        .collect();
    TagDesignResult {
        end_on,
        long_range,
        trials,
    }
}

/// Renders the study.
#[must_use]
pub fn render(result: &TagDesignResult) -> String {
    let rows: Vec<(String, String, String)> = TagBuild::ALL
        .iter()
        .map(|&build| {
            (
                build.label().to_owned(),
                match build {
                    TagBuild::Baseline => "(paper's tag)".to_owned(),
                    _ => "(paper future work)".to_owned(),
                },
                format!(
                    "end-on {:.1}/{TAG_COUNT}, 6 m {:.1}/20",
                    TagDesignResult::value(&result.end_on, build),
                    TagDesignResult::value(&result.long_range, build),
                ),
            )
        })
        .collect();
    let mut out = paper_vs_measured(
        &format!(
            "Tag-design extension — worst-case orientation (case 1, 40 mm) and \
             6 m read range ({} trials per cell)",
            result.trials
        ),
        &rows,
    );
    out.push_str(&shape_check_line(
        "dual dipole repairs the orientation null; battery assist extends range",
        result.shape_holds(),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn designs_fix_their_target_weaknesses() {
        let result = run(&Calibration::default(), 6, 13, &TrialExecutor::serial());
        assert!(
            result.shape_holds(),
            "end-on {:?}, range {:?}",
            result.end_on,
            result.long_range
        );
    }

    #[test]
    fn baseline_matches_the_main_experiments() {
        let result = run(&Calibration::default(), 6, 13, &TrialExecutor::serial());
        // Baseline end-on is poor (the paper's cases 1/5 finding).
        let base = TagDesignResult::value(&result.end_on, TagBuild::Baseline);
        assert!(base < 6.0, "baseline end-on should stay weak: {base}");
    }

    #[test]
    fn render_lists_all_builds() {
        let result = run(&Calibration::default(), 2, 5, &TrialExecutor::serial());
        let text = render(&result);
        for build in TagBuild::ALL {
            assert!(text.contains(build.label()));
        }
    }
}
