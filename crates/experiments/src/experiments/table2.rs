//! Table 2: read reliability for tags on humans.

use crate::report::{paper_vs_measured, percent, shape_check_line};
use crate::scenarios::{human_pass_scenario, BadgeSpot, HumanPassConfig};
use crate::Calibration;
use rfid_core::{tracked_counts, ReliabilityEstimate};
use rfid_sim::TrialExecutor;

/// Table 2 results.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Result {
    /// One-subject reliability per spot.
    pub one_subject: Vec<(BadgeSpot, ReliabilityEstimate)>,
    /// Two-subject reliability per spot, split (closer, farther).
    pub two_subjects: Vec<(BadgeSpot, ReliabilityEstimate, ReliabilityEstimate)>,
    /// Walk-bys per cell.
    pub trials: u64,
}

impl Table2Result {
    /// One-subject estimate for a spot.
    #[must_use]
    pub fn single(&self, spot: BadgeSpot) -> Option<&ReliabilityEstimate> {
        self.one_subject
            .iter()
            .find(|(s, _)| *s == spot)
            .map(|(_, e)| e)
    }

    /// Front and back pooled, as the paper reports them.
    #[must_use]
    pub fn front_back_pooled(&self) -> Option<ReliabilityEstimate> {
        match (self.single(BadgeSpot::Front), self.single(BadgeSpot::Back)) {
            (Some(front), Some(back)) => Some(front.pooled(back)),
            _ => None,
        }
    }

    /// The paper's findings: the closer side is the best spot, the farther
    /// side is nearly dead (body blocking), and the *closer subject in a
    /// pair does no worse than alone* (reflections off the second body).
    #[must_use]
    pub fn shape_holds(&self) -> bool {
        // Thresholds leave room for binomial noise at the paper's 20
        // walks per cell (a 90% cell has a 95% interval of roughly
        // 70-97% at n = 20).
        let single = |s: BadgeSpot| self.single(s).map_or(0.0, |e| e.point().value());
        let ordering = single(BadgeSpot::SideFarther) < 0.3
            && single(BadgeSpot::SideCloser) >= 0.65
            && single(BadgeSpot::SideFarther) < single(BadgeSpot::Front)
            && single(BadgeSpot::SideFarther) < single(BadgeSpot::SideCloser);
        let reflection_boost = self
            .two_subjects
            .iter()
            .filter(|(s, _, _)| !matches!(s, BadgeSpot::SideFarther))
            .all(|(spot, closer, _)| closer.point().value() + 0.15 >= single(*spot));
        ordering && reflection_boost
    }
}

/// Runs the experiment: `trials` walk-bys per cell (the paper used 20).
///
/// # Panics
///
/// Panics if `trials == 0`.
#[must_use]
pub fn run(cal: &Calibration, trials: u64, seed: u64, executor: &TrialExecutor) -> Table2Result {
    assert!(trials > 0, "at least one trial is required");
    let one_subject = BadgeSpot::ALL
        .iter()
        .map(|&spot| {
            let (scenario, subject_tags) = human_pass_scenario(cal, &HumanPassConfig::single(spot));
            let hits = tracked_counts(executor, &scenario, trials, seed, &subject_tags);
            let estimate =
                ReliabilityEstimate::from_counts(hits[0], trials).expect("hits bounded by trials");
            (spot, estimate)
        })
        .collect();

    let two_subjects = BadgeSpot::ALL
        .iter()
        .map(|&spot| {
            let config = HumanPassConfig {
                subjects: 2,
                spots: vec![spot],
                antennas: 1,
            };
            let (scenario, subject_tags) = human_pass_scenario(cal, &config);
            let hits = tracked_counts(
                executor,
                &scenario,
                trials,
                seed.wrapping_add(0x2000),
                &subject_tags,
            );
            let estimate = |hits| {
                ReliabilityEstimate::from_counts(hits, trials).expect("hits bounded by trials")
            };
            (spot, estimate(hits[0]), estimate(hits[1]))
        })
        .collect();

    Table2Result {
        one_subject,
        two_subjects,
        trials,
    }
}

/// Renders the paper's Table 2 layout.
#[must_use]
pub fn render(result: &Table2Result) -> String {
    // Paper reference: (label, 1-subject, closer, farther).
    let paper = [
        ("Front / Back", 0.75, 0.90, 0.50),
        ("Side (closer)", 0.90, 0.90, 0.50),
        ("Side (farther)", 0.10, 0.30, 0.00),
    ];
    let pooled_fb = result.front_back_pooled();
    let pooled_fb_two: Option<(ReliabilityEstimate, ReliabilityEstimate)> = {
        let rows: Vec<_> = result
            .two_subjects
            .iter()
            .filter(|(s, _, _)| matches!(s, BadgeSpot::Front | BadgeSpot::Back))
            .collect();
        if rows.len() == 2 {
            Some((rows[0].1.pooled(&rows[1].1), rows[0].2.pooled(&rows[1].2)))
        } else {
            None
        }
    };
    let measured = |label: &str| -> (String, String, String) {
        let fmt3 = |one: Option<&ReliabilityEstimate>,
                    closer: Option<&ReliabilityEstimate>,
                    farther: Option<&ReliabilityEstimate>| {
            (
                one.map_or("-".into(), |e| percent(e.point().value())),
                closer.map_or("-".into(), |e| percent(e.point().value())),
                farther.map_or("-".into(), |e| percent(e.point().value())),
            )
        };
        match label {
            "Front / Back" => fmt3(
                pooled_fb.as_ref(),
                pooled_fb_two.as_ref().map(|(c, _)| c),
                pooled_fb_two.as_ref().map(|(_, f)| f),
            ),
            "Side (closer)" => {
                let two = result
                    .two_subjects
                    .iter()
                    .find(|(s, _, _)| *s == BadgeSpot::SideCloser);
                fmt3(
                    result.single(BadgeSpot::SideCloser),
                    two.map(|(_, c, _)| c),
                    two.map(|(_, _, f)| f),
                )
            }
            _ => {
                let two = result
                    .two_subjects
                    .iter()
                    .find(|(s, _, _)| *s == BadgeSpot::SideFarther);
                fmt3(
                    result.single(BadgeSpot::SideFarther),
                    two.map(|(_, c, _)| c),
                    two.map(|(_, _, f)| f),
                )
            }
        }
    };

    let mut rows = Vec::new();
    for (label, p1, pc, pf) in paper {
        let (m1, mc, mf) = measured(label);
        rows.push((
            label.to_owned(),
            format!("{} | {} | {}", percent(p1), percent(pc), percent(pf)),
            format!("{m1} | {mc} | {mf}"),
        ));
    }
    let mut out = paper_vs_measured(
        &format!(
            "Table 2 — read reliability for tags on humans \
             (one subject | two: closer | two: farther; {} walks per cell)",
            result.trials
        ),
        &rows,
    );
    out.push_str(
        "note: the reproduced far-side reliability is ~0% where the paper saw 10% \
         (2/20); the residual reads in their lab came from wall reflections our \
         room model omits (see EXPERIMENTS.md)\n",
    );
    out.push_str(&shape_check_line(
        "closer best, farther blocked, reflection boost",
        result.shape_holds(),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_holds_at_modest_trials() {
        let result = run(&Calibration::default(), 12, 3, &TrialExecutor::serial());
        assert!(
            result.shape_holds(),
            "one: {:?}",
            result
                .one_subject
                .iter()
                .map(|(s, e)| (s.label(), e.point().value()))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn pooling_front_and_back() {
        let result = run(&Calibration::default(), 4, 5, &TrialExecutor::serial());
        let pooled = result.front_back_pooled().expect("both spots measured");
        assert_eq!(pooled.trials(), 8);
    }

    #[test]
    fn render_has_all_rows() {
        let result = run(&Calibration::default(), 3, 9, &TrialExecutor::serial());
        let text = render(&result);
        assert!(text.contains("Front / Back"));
        assert!(text.contains("Side (closer)"));
        assert!(text.contains("Side (farther)"));
    }
}
