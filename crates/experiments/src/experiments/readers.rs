//! Section 4's reader-level redundancy finding.
//!
//! "While one might expect to see similar improvements for multiple
//! readers per portal, our measurement clearly showed the opposite: read
//! reliability was severely reduced... The reason is reader-to-reader RF
//! interference. While Gen 2 has standard measures to combat this problem,
//! called dense-reader mode, it is optional for readers. Our readers did
//! not support dense-reader mode."

use crate::report::{paper_vs_measured, shape_check_line};
use crate::scenarios::{object_pass_scenario, BoxFace, ObjectPassConfig, BOX_COUNT};
use crate::Calibration;
use rfid_core::{tracking_outcome, ReliabilityEstimate};
use rfid_sim::TrialExecutor;

/// Reader-redundancy results.
#[derive(Debug, Clone, PartialEq)]
pub struct ReadersResult {
    /// Baseline: one reader, one antenna.
    pub one_reader: ReliabilityEstimate,
    /// Two legacy readers (no dense mode) on the portal.
    pub two_legacy: ReliabilityEstimate,
    /// Two dense-mode readers on separate channels.
    pub two_dense: ReliabilityEstimate,
    /// Passes per configuration.
    pub trials: u64,
}

impl ReadersResult {
    /// The paper's finding: legacy reader redundancy is *worse than no
    /// redundancy*; dense-reader mode recovers (and can exceed) the
    /// baseline.
    #[must_use]
    pub fn shape_holds(&self) -> bool {
        let one = self.one_reader.point().value();
        let legacy = self.two_legacy.point().value();
        let dense = self.two_dense.point().value();
        legacy < one - 0.2 && dense >= one - 0.05
    }
}

fn measure(
    cal: &Calibration,
    readers: usize,
    dense: bool,
    trials: u64,
    seed: u64,
    executor: &TrialExecutor,
) -> ReliabilityEstimate {
    let config = ObjectPassConfig {
        faces: vec![BoxFace::Front],
        antennas: 1,
        readers,
        dense_mode: dense,
    };
    let (scenario, box_tags) = object_pass_scenario(cal, &config);
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
    ReliabilityEstimate::from_counts(hits, trials * BOX_COUNT as u64).expect("bounded")
}

/// Runs the three configurations. Trial `i` of a configuration has seed
/// `seed` plus the configuration's offset plus `i`, so results are
/// identical for any thread count.
///
/// # Panics
///
/// Panics if `trials == 0`.
#[must_use]
pub fn run(cal: &Calibration, trials: u64, seed: u64, executor: &TrialExecutor) -> ReadersResult {
    assert!(trials > 0, "at least one trial is required");
    ReadersResult {
        one_reader: measure(cal, 1, false, trials, seed, executor),
        two_legacy: measure(cal, 2, false, trials, seed.wrapping_add(0x100), executor),
        two_dense: measure(cal, 2, true, trials, seed.wrapping_add(0x200), executor),
        trials,
    }
}

/// Renders the comparison.
#[must_use]
pub fn render(result: &ReadersResult) -> String {
    let rows = vec![
        (
            "1 reader (baseline)".to_owned(),
            "baseline".to_owned(),
            result.one_reader.to_string(),
        ),
        (
            "2 readers, no dense mode".to_owned(),
            "severely reduced".to_owned(),
            result.two_legacy.to_string(),
        ),
        (
            "2 readers, dense mode".to_owned(),
            "(not available to the paper)".to_owned(),
            result.two_dense.to_string(),
        ),
    ];
    let mut out = paper_vs_measured(
        &format!(
            "Section 4 — reader-level redundancy ({} passes x {BOX_COUNT} boxes each)",
            result.trials
        ),
        &rows,
    );
    out.push_str(&shape_check_line(
        "legacy pair collapses, dense pair recovers",
        result.shape_holds(),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legacy_readers_collapse_and_dense_recovers() {
        let result = run(&Calibration::default(), 4, 21, &TrialExecutor::serial());
        assert!(
            result.shape_holds(),
            "one {} legacy {} dense {}",
            result.one_reader,
            result.two_legacy,
            result.two_dense
        );
    }

    #[test]
    fn render_contains_all_three_rows() {
        let result = run(&Calibration::default(), 2, 3, &TrialExecutor::serial());
        let text = render(&result);
        assert!(text.contains("baseline"));
        assert!(text.contains("dense mode"));
    }
}
