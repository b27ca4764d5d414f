//! Figure 2: read reliability vs. tag-antenna distance.

use crate::report::{paper_vs_measured, shape_check_line};
use crate::scenarios::read_range_scenario;
use crate::Calibration;
use rfid_sim::TrialExecutor;
use rfid_stats::StreamSummary;

/// Distances the paper sweeps, meters.
pub const DISTANCES_M: [f64; 9] = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0];

/// One distance's result.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig2Row {
    /// Tag-antenna distance.
    pub distance_m: f64,
    /// Streaming summary of tags read (out of 20) across trials.
    pub tags_read: StreamSummary,
}

/// The full Figure 2 sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig2Result {
    /// One row per distance.
    pub rows: Vec<Fig2Row>,
    /// Trials per distance.
    pub trials: u64,
}

impl Fig2Result {
    /// Whether the reproduction has the paper's shape: essentially all
    /// 20 tags at 1 m, monotonically declining beyond, near zero at 9 m.
    #[must_use]
    pub fn shape_holds(&self) -> bool {
        let means: Vec<f64> = self.rows.iter().map(|r| r.tags_read.mean()).collect();
        let near_full_at_1m = means[0] >= 18.0;
        let declining = means.windows(2).all(|w| w[1] <= w[0] + 1.0);
        let low_at_9m = *means.last().expect("nine distances") <= 4.0;
        near_full_at_1m && declining && low_at_9m
    }
}

/// Runs the sweep: `trials` single reads per distance (the paper used 40).
/// Trial `i` has seed `seed.wrapping_add(i)`, so results are identical
/// for any thread count.
///
/// # Panics
///
/// Panics if `trials == 0`.
#[must_use]
pub fn run(cal: &Calibration, trials: u64, seed: u64, executor: &TrialExecutor) -> Fig2Result {
    assert!(trials > 0, "at least one trial is required");
    let rows = DISTANCES_M
        .iter()
        .map(|&distance_m| {
            let scenario = read_range_scenario(cal, distance_m);
            let tags_read = executor.run_round_fold(
                &scenario,
                0,
                0,
                0.0,
                trials,
                seed,
                StreamSummary::new,
                |mut acc, log| {
                    acc.push(log.reads.len() as f64);
                    acc
                },
                |mut a, b| {
                    a.merge(&b);
                    a
                },
            );
            Fig2Row {
                distance_m,
                tags_read,
            }
        })
        .collect();
    Fig2Result { rows, trials }
}

/// Renders the paper-vs-reproduction report.
#[must_use]
pub fn render(result: &Fig2Result) -> String {
    let rows: Vec<(String, String, String)> = result
        .rows
        .iter()
        .map(|row| {
            let q = row
                .tags_read
                .quartiles()
                .expect("each row folded at least one NaN-free trial");
            (
                format!("{:.0} m", row.distance_m),
                paper_reference(row.distance_m),
                format!(
                    "{:>4.1}/20 (quartiles {:.0}-{:.0})",
                    row.tags_read.mean(),
                    q.lower,
                    q.upper
                ),
            )
        })
        .collect();
    let mut out = paper_vs_measured(
        &format!(
            "Figure 2 — read reliability vs. distance ({} single reads per point)",
            result.trials
        ),
        &rows,
    );
    out.push_str(&shape_check_line(
        "full at 1 m, monotone decline, low at 9 m",
        result.shape_holds(),
    ));
    out
}

/// The paper's figure is published as a plot without a data table; the
/// prose pins the endpoints ("100% read reliability at a distance of 1 m.
/// However, reliability gradually dropped between 2 m and 9 m").
fn paper_reference(distance_m: f64) -> String {
    if distance_m <= 1.0 {
        "20/20 (100%)".to_owned()
    } else {
        "declining".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_holds_at_modest_trials() {
        let result = run(&Calibration::default(), 8, 1, &TrialExecutor::serial());
        assert_eq!(result.rows.len(), 9);
        assert!(
            result.shape_holds(),
            "means: {:?}",
            result
                .rows
                .iter()
                .map(|r| r.tags_read.mean())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn render_mentions_every_distance() {
        let result = run(&Calibration::default(), 3, 2, &TrialExecutor::serial());
        let text = render(&result);
        for d in 1..=9 {
            assert!(text.contains(&format!("{d} m")), "{text}");
        }
        assert!(text.contains("HOLDS") || text.contains("VIOLATED"));
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run(&Calibration::default(), 3, 7, &TrialExecutor::serial());
        let b = run(&Calibration::default(), 3, 7, &TrialExecutor::serial());
        assert_eq!(a, b);
    }
}
