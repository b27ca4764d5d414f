//! Rendering helpers for experiment reports.

use crate::campaign::CampaignState;
use rfid_core::{ModelComparison, ReliabilityEstimate};
use rfid_sim::CampaignSpec;
use rfid_stats::{Align, StreamSummary, Table};

/// Formats a probability in `[0, 1]` as a paper-style percentage.
#[must_use]
pub fn percent(p: f64) -> String {
    format!("{:.0}%", p * 100.0)
}

/// Formats a probability with one decimal for near-100% values where the
/// paper distinguishes 99.6% from 100%.
#[must_use]
pub fn percent_fine(p: f64) -> String {
    if p > 0.985 && p < 1.0 {
        format!("{:.1}%", p * 100.0)
    } else {
        percent(p)
    }
}

/// The line that closes every experiment's report: the claim its shape
/// check tests, and whether the run upheld it.
#[must_use]
pub fn shape_check_line(claim: &str, holds: bool) -> String {
    format!(
        "shape check ({claim}): {}\n",
        if holds { "HOLDS" } else { "VIOLATED" }
    )
}

/// Builds the standard three-column comparison table: label, paper value,
/// reproduced value.
#[must_use]
pub fn paper_vs_measured(title: &str, rows: &[(String, String, String)]) -> String {
    let mut table = Table::new(vec!["".into(), "paper".into(), "reproduced".into()]);
    table.align(1, Align::Right).align(2, Align::Right);
    for (label, paper, measured) in rows {
        table.row(vec![label.clone(), paper.clone(), measured.clone()]);
    }
    format!("{title}\n{table}")
}

/// Builds the paper's R_M / R_C table with paper reference values.
#[must_use]
pub fn model_comparison_table(title: &str, rows: &[(ModelComparison, &str, &str)]) -> String {
    let mut table = Table::new(vec![
        "configuration".into(),
        "paper R_M".into(),
        "paper R_C".into(),
        "repro R_M".into(),
        "repro R_C".into(),
    ]);
    for col in 1..5 {
        table.align(col, Align::Right);
    }
    for (comparison, paper_rm, paper_rc) in rows {
        table.row(vec![
            comparison.label.clone(),
            (*paper_rm).to_owned(),
            (*paper_rc).to_owned(),
            percent_fine(comparison.measured.point().value()),
            percent_fine(comparison.calculated.value()),
        ]);
    }
    format!("{title}\n{table}")
}

/// One line summarizing a reliability estimate with its 95% interval.
#[must_use]
pub fn estimate_line(label: &str, estimate: &ReliabilityEstimate) -> String {
    let ci = estimate.wilson_95();
    format!(
        "{label}: {} [95% CI {:.0}-{:.0}%]",
        estimate,
        ci.low * 100.0,
        ci.high * 100.0
    )
}

/// Renders a [`StreamSummary`] the way figure rows need it: mean with
/// sketch-derived quartiles, or `-` when nothing was folded in.
#[must_use]
pub fn summary_cell(summary: &StreamSummary) -> String {
    if summary.is_empty() {
        return "-".to_owned();
    }
    match (summary.quantile(0.25), summary.quantile(0.75)) {
        (Ok(q1), Ok(q3)) => format!("{:.2} [{q1:.2}, {q3:.2}]", summary.mean()),
        _ => format!("{:.2}", summary.mean()),
    }
}

/// The campaign report table: one row per deployment plus a total row,
/// every cell read straight off the streaming accumulators.
#[must_use]
pub fn campaign_table(spec: &CampaignSpec, state: &CampaignState) -> String {
    let mut table = Table::new(vec![
        "deployment".into(),
        "trials".into(),
        "objects".into(),
        "detection".into(),
        "reads/tag".into(),
        "rounds".into(),
    ]);
    for col in 1..6 {
        table.align(col, Align::Right);
    }
    for (deployment, acc) in spec.deployments.iter().zip(&state.per_deployment) {
        table.row(vec![
            deployment.name.clone(),
            acc.trials.to_string(),
            acc.objects.to_string(),
            summary_cell(&acc.detection),
            summary_cell(&acc.reads_per_tag),
            summary_cell(&acc.rounds),
        ]);
    }
    table.row(vec![
        "total".into(),
        state.total.trials.to_string(),
        state.total.objects.to_string(),
        summary_cell(&state.total.detection),
        summary_cell(&state.total.reads_per_tag),
        summary_cell(&state.total.rounds),
    ]);
    format!("{table}")
}

/// One line summarizing the simulator work behind a report (trial, round,
/// and link-evaluation counts plus per-stage timing) from a
/// [`rfid_sim::CountersSnapshot`].
#[must_use]
pub fn counters_line(snapshot: &rfid_sim::CountersSnapshot) -> String {
    format!("sim work: {snapshot}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_core::Probability;

    #[test]
    fn percent_rounds_like_the_paper() {
        assert_eq!(percent(0.63), "63%");
        assert_eq!(percent(1.0), "100%");
        assert_eq!(percent_fine(0.996), "99.6%");
        assert_eq!(percent_fine(0.5), "50%");
        assert_eq!(percent_fine(1.0), "100%");
    }

    #[test]
    fn comparison_table_contains_all_cells() {
        let row = ModelComparison::new(
            "2 tags",
            ReliabilityEstimate::from_counts(97, 100).unwrap(),
            Probability::new(0.97).unwrap(),
        );
        let text = model_comparison_table("Table 3", &[(row, "97%", "97%")]);
        assert!(text.contains("Table 3"));
        assert!(text.contains("2 tags"));
        assert!(text.contains("97%"));
        assert!(text.contains("paper R_M"));
    }

    #[test]
    fn estimate_line_shows_interval() {
        let est = ReliabilityEstimate::from_counts(9, 12).unwrap();
        let line = estimate_line("front", &est);
        assert!(line.contains("front"));
        assert!(line.contains("75%"));
        assert!(line.contains("CI"));
    }

    #[test]
    fn paper_vs_measured_renders_rows() {
        let text = paper_vs_measured("Figure 2", &[("1 m".into(), "20".into(), "19.3".into())]);
        assert!(text.contains("Figure 2"));
        assert!(text.contains("19.3"));
    }

    #[test]
    fn counters_line_reports_sim_work() {
        rfid_sim::counters::reset();
        let before = rfid_sim::counters::snapshot();
        let _ = crate::experiments::fig2::run(
            &crate::Calibration::default(),
            2,
            1,
            &rfid_sim::TrialExecutor::serial(),
        );
        let snapshot = rfid_sim::counters::snapshot().since(&before);
        let line = counters_line(&snapshot);
        assert!(line.contains("sim work"), "{line}");
        assert!(line.contains("trials"), "{line}");
        assert!(snapshot.link_evals > 0, "{line}");
    }
}
