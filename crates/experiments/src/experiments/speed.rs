//! Object-speed sweep.
//!
//! Section 2.1 lists speed among the reliability factors: "higher object
//! speeds limit the time when tags are visible to an antenna", and
//! Section 4 requires "allowing adequate time for all tags to be read,
//! which is around .02 sec per tag". The paper fixes 1 m/s everywhere and
//! never isolates the effect; this experiment does, on the workload where
//! it bites: the cart with *every* face of every box tagged (48 tags), so
//! inventory time competes with dwell time as speed rises.

use crate::report::{percent, shape_check_line};
use crate::scenarios::{object_pass_scenario, BoxFace, ObjectPassConfig, BOX_COUNT};
use crate::Calibration;
use rfid_core::ReliabilityEstimate;
use rfid_phys::FadingProcess;
use rfid_sim::TrialExecutor;
use rfid_stats::{Align, Table};

/// Speeds swept, m/s: 1.0 is the paper's cart, 4 a forklift, 8 a slow
/// vehicle (the paper's motivation includes highway toll collection,
/// where active tags take over precisely because of this effect).
pub const SPEEDS_MPS: [f64; 6] = [0.5, 1.0, 2.0, 4.0, 6.0, 8.0];

/// One speed's result.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeedRow {
    /// Cart speed.
    pub speed_mps: f64,
    /// Time a tag spends within 1 m of boresight, seconds.
    pub dwell_s: f64,
    /// Per-tag read fraction across the 48-tag cart.
    pub reliability: ReliabilityEstimate,
}

/// The speed sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeedResult {
    /// One row per speed.
    pub rows: Vec<SpeedRow>,
    /// Passes per speed.
    pub trials: u64,
}

impl SpeedResult {
    /// The expected physics: reliability does not improve with speed, and
    /// the fastest pass is measurably worse than the slowest.
    #[must_use]
    pub fn shape_holds(&self) -> bool {
        let first = self
            .rows
            .first()
            .map_or(0.0, |r| r.reliability.point().value());
        let last = self
            .rows
            .last()
            .map_or(1.0, |r| r.reliability.point().value());
        let no_improvement = self.rows.windows(2).all(|pair| {
            pair[1].reliability.point().value() <= pair[0].reliability.point().value() + 0.08
            // binomial slack
        });
        no_improvement && last < first - 0.1
    }
}

/// Runs the sweep on the fully-tagged object workload (4 tags x 12
/// boxes); the reported reliability is the per-tag read fraction. Trial
/// `i` has seed `seed.wrapping_add(i)`, so results are identical for any
/// thread count.
///
/// # Panics
///
/// Panics if `trials == 0`.
#[must_use]
pub fn run(cal: &Calibration, trials: u64, seed: u64, executor: &TrialExecutor) -> SpeedResult {
    assert!(trials > 0, "at least one trial is required");
    let rows = SPEEDS_MPS
        .iter()
        .map(|&speed_mps| {
            let tuned = Calibration {
                speed_mps,
                // Faster motion decorrelates the fast fading sooner.
                coherence_s: FadingProcess::coherence_from_speed(speed_mps, cal.frequency_hz),
                ..cal.clone()
            };
            let config = ObjectPassConfig {
                faces: BoxFace::ALL.to_vec(),
                antennas: 1,
                readers: 1,
                dense_mode: false,
            };
            let (scenario, box_tags) = object_pass_scenario(&tuned, &config);
            let tag_count: u64 = box_tags.iter().map(|tags| tags.len() as u64).sum();
            let hits: u64 = executor.run_scenario_fold(
                &scenario,
                trials,
                seed,
                || 0u64,
                |acc, output| acc + output.tags_read().len() as u64,
                |a, b| a + b,
            );
            SpeedRow {
                speed_mps,
                dwell_s: 2.0 / speed_mps,
                reliability: ReliabilityEstimate::from_counts(hits, trials * tag_count)
                    .expect("bounded"),
            }
        })
        .collect();
    SpeedResult { rows, trials }
}

/// Renders the sweep.
#[must_use]
pub fn render(result: &SpeedResult) -> String {
    let mut table = Table::new(vec![
        "speed".into(),
        "dwell in read zone".into(),
        "tags read (of 48/cart)".into(),
    ]);
    table.align(1, Align::Right).align(2, Align::Right);
    for row in &result.rows {
        table.row(vec![
            format!("{:.1} m/s", row.speed_mps),
            format!("{:.1} s", row.dwell_s),
            percent(row.reliability.point().value()),
        ]);
    }
    format!(
        "Speed sweep — the Section 2.1 factor the paper lists but never \
         isolates (fully tagged cart: 4 tags x {BOX_COUNT} boxes; {} passes \
         per speed; 1.0 m/s is the paper's cart)\n{table}{}",
        result.trials,
        shape_check_line("faster passes read worse", result.shape_holds())
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faster_passes_read_worse() {
        let result = run(&Calibration::default(), 6, 2007, &TrialExecutor::serial());
        assert!(
            result.shape_holds(),
            "{:?}",
            result
                .rows
                .iter()
                .map(|r| (r.speed_mps, r.reliability.point().value()))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn dwell_time_is_inverse_in_speed() {
        let result = run(&Calibration::default(), 2, 1, &TrialExecutor::serial());
        for pair in result.rows.windows(2) {
            assert!(pair[1].dwell_s < pair[0].dwell_s);
        }
    }

    #[test]
    fn render_lists_all_speeds() {
        let result = run(&Calibration::default(), 2, 3, &TrialExecutor::serial());
        let text = render(&result);
        for speed in SPEEDS_MPS {
            assert!(text.contains(&format!("{speed:.1} m/s")));
        }
    }
}
