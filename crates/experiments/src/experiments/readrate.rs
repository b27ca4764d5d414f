//! Section 4's timing claim: "allowing adequate time for all tags to be
//! read, which is around .02 sec per tag".

use crate::report::{paper_vs_measured, shape_check_line};
use crate::scenarios::{antenna_poses, orient_tag};
use crate::Calibration;
use rfid_geom::{Pose, Vec3};
use rfid_phys::Mounting;
use rfid_sim::{Attachment, Motion, Scenario, ScenarioBuilder, SimTag, TrialExecutor};
use rfid_stats::StreamSummary;

/// Population sizes swept.
pub const POPULATIONS: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];

/// One population's timing.
#[derive(Debug, Clone, PartialEq)]
pub struct ReadRateRow {
    /// Number of tags in front of the antenna.
    pub population: usize,
    /// Mean tags actually read per round.
    pub read: f64,
    /// Mean round duration in seconds.
    pub round_s: f64,
    /// Mean time per successfully read tag.
    pub per_tag_s: f64,
    /// Mean collided slots per round.
    pub collisions: f64,
}

/// The timing sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ReadRateResult {
    /// One row per population size.
    pub rows: Vec<ReadRateRow>,
    /// Rounds per population.
    pub trials: u64,
}

impl ReadRateResult {
    /// The paper's claim: on the order of 0.02 s per tag. The reproduced
    /// per-tag time is highest for a lone tag (the reader's fixed per-round
    /// overhead is unamortized) and a few milliseconds at scale, bracketing
    /// the paper's end-to-end 0.02 s; nearly all tags are read each round.
    #[must_use]
    pub fn shape_holds(&self) -> bool {
        self.rows.iter().all(|row| {
            row.read >= row.population as f64 * 0.85 && (0.003..=0.05).contains(&row.per_tag_s)
        })
    }
}

fn population_scenario(cal: &Calibration, population: usize) -> Scenario {
    // Tags in a tight plane 1 m from the antenna, all well within range.
    let rotation = orient_tag(Vec3::X, -Vec3::Y);
    let mut builder = ScenarioBuilder::new()
        .frequency_hz(cal.frequency_hz)
        .duration_s(5.0)
        .channel({
            let mut params = cal.channel_params();
            params.rician_k_db = 14.0; // stationary bench test
            params.coupling.cutoff_m = 0.0; // spaced beyond coupling anyway
            params
        })
        .reader(cal.reader(&antenna_poses(cal, 1, 2.0)));
    for i in 0..population {
        let row = (i / 8) as f64;
        let col = (i % 8) as f64;
        builder = builder.tag(SimTag {
            epc: rfid_gen2::Epc96::from_u128(0x3000 + i as u128),
            attachment: Attachment::Free(Motion::Static(Pose::new(
                Vec3::new(
                    (col - 3.5) * 0.1,
                    cal.lane_distance_m,
                    cal.antenna_height_m + (row - 3.5) * 0.1,
                ),
                rotation,
            ))),
            chip: cal.chip(),
            mounting: Mounting::free_space(),
        });
    }
    builder.build()
}

/// Runs the sweep: `trials` single inventory rounds per population.
///
/// # Panics
///
/// Panics if `trials == 0`.
#[must_use]
pub fn run(cal: &Calibration, trials: u64, seed: u64, executor: &TrialExecutor) -> ReadRateResult {
    assert!(trials > 0, "at least one trial is required");
    let rows = POPULATIONS
        .iter()
        .map(|&population| {
            let scenario = population_scenario(cal, population);
            let (read, duration, collisions) = executor.run_round_fold(
                &scenario,
                0,
                0,
                0.0,
                trials,
                seed,
                || {
                    (
                        StreamSummary::new(),
                        StreamSummary::new(),
                        StreamSummary::new(),
                    )
                },
                |(mut read, mut duration, mut collisions), log| {
                    read.push(log.reads.len() as f64);
                    duration.push(log.duration_s);
                    collisions.push(f64::from(log.collisions));
                    (read, duration, collisions)
                },
                |(mut ra, mut da, mut ca), (rb, db, cb)| {
                    ra.merge(&rb);
                    da.merge(&db);
                    ca.merge(&cb);
                    (ra, da, ca)
                },
            );
            let mean_read = read.mean();
            ReadRateRow {
                population,
                read: mean_read,
                round_s: duration.mean(),
                per_tag_s: if mean_read > 0.0 {
                    duration.mean() / mean_read
                } else {
                    f64::INFINITY
                },
                collisions: collisions.mean(),
            }
        })
        .collect();
    ReadRateResult { rows, trials }
}

/// Renders the timing table.
#[must_use]
pub fn render(result: &ReadRateResult) -> String {
    let rows: Vec<(String, String, String)> = result
        .rows
        .iter()
        .map(|row| {
            (
                format!("{} tags", row.population),
                "~0.02 s/tag".to_owned(),
                format!(
                    "{:.1} read, {:.0} ms round, {:.1} ms/tag, {:.1} collisions",
                    row.read,
                    row.round_s * 1000.0,
                    row.per_tag_s * 1000.0,
                    row.collisions
                ),
            )
        })
        .collect();
    let mut out = paper_vs_measured(
        &format!(
            "Section 4 — inventory timing ({} rounds per population)",
            result.trials
        ),
        &rows,
    );
    out.push_str(&shape_check_line(
        "all tags read, per-tag time near 0.02 s",
        result.shape_holds(),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_matches_the_paper_claim() {
        let result = run(&Calibration::default(), 3, 17, &TrialExecutor::serial());
        assert!(
            result.shape_holds(),
            "{:#?}",
            result
                .rows
                .iter()
                .map(|r| (r.population, r.read, r.per_tag_s))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn collisions_grow_with_population() {
        let result = run(&Calibration::default(), 3, 23, &TrialExecutor::serial());
        let small = result.rows.first().unwrap().collisions;
        let large = result.rows.last().unwrap().collisions;
        assert!(large > small);
    }

    #[test]
    fn render_sweeps_all_populations() {
        let result = run(&Calibration::default(), 2, 2, &TrialExecutor::serial());
        let text = render(&result);
        for p in POPULATIONS {
            assert!(text.contains(&format!("{p} tags")));
        }
    }
}
