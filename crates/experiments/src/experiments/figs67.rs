//! Figures 6 and 7: one- and two-subject tracking, measured vs
//! calculated, across antenna/tag combinations.
//!
//! These figures are derived views of the Table 2/4/5 data: each bar
//! group is a configuration (antennas x tags), with the measured and the
//! analytically expected reliability side by side.

use crate::experiments::table2::Table2Result;
use crate::experiments::table45::{Table45Result, TagSet};
use crate::report::shape_check_line;
use rfid_stats::BarChart;

/// One bar group of the figures.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureBar {
    /// Configuration label.
    pub label: String,
    /// Measured reliability.
    pub measured: f64,
    /// Calculated (model) reliability.
    pub calculated: f64,
}

/// The bars of Figure 6 (one subject).
#[must_use]
pub fn figure6_bars(table2: &Table2Result, table45: &Table45Result) -> Vec<FigureBar> {
    let mut bars = Vec::new();
    if let Some(base) = table2.front_back_pooled() {
        let p = base.point().value();
        bars.push(FigureBar {
            label: "1 ant, 1 tag".into(),
            measured: p,
            calculated: p,
        });
    }
    for (label, set, antennas) in [
        ("2 ant, 1 tag", TagSet::OneFrontBack, 2),
        ("1 ant, 2 tags", TagSet::TwoFrontBack, 1),
        ("2 ant, 2 tags", TagSet::TwoFrontBack, 2),
        ("1 ant, 4 tags", TagSet::Four, 1),
        ("2 ant, 4 tags", TagSet::Four, 2),
    ] {
        if let Some(row) = table45.row(set, antennas) {
            bars.push(FigureBar {
                label: label.into(),
                measured: row.one.measured.point().value(),
                calculated: row.one.calculated.value(),
            });
        }
    }
    bars
}

/// The bars of Figure 7 (two subjects; average of closer and farther).
#[must_use]
pub fn figure7_bars(table45: &Table45Result) -> Vec<FigureBar> {
    let mut bars = Vec::new();
    for (label, set, antennas) in [
        ("2 ant, 1 tag", TagSet::OneFrontBack, 2),
        ("1 ant, 2 tags", TagSet::TwoFrontBack, 1),
        ("2 ant, 2 tags", TagSet::TwoFrontBack, 2),
        ("1 ant, 4 tags", TagSet::Four, 1),
        ("2 ant, 4 tags", TagSet::Four, 2),
    ] {
        if let Some(row) = table45.row(set, antennas) {
            bars.push(FigureBar {
                label: label.into(),
                measured: (row.two_closer.measured.point().value()
                    + row.two_farther.measured.point().value())
                    / 2.0,
                calculated: (row.two_closer.calculated.value()
                    + row.two_farther.calculated.value())
                    / 2.0,
            });
        }
    }
    bars
}

/// The figures' shape check: redundancy raises measured tracking from
/// the single-opportunity baseline toward 100%.
#[must_use]
pub fn shape_holds(fig6: &[FigureBar]) -> bool {
    fig6.first()
        .zip(fig6.last())
        .is_some_and(|(first, last)| last.measured >= first.measured)
}

/// Renders one figure as a grouped bar chart.
#[must_use]
pub fn render_figure(title: &str, bars: &[FigureBar]) -> String {
    let mut chart = BarChart::new(title, 40);
    for bar in bars {
        chart.bar(&format!("{}  (measured)", bar.label), bar.measured);
        chart.bar(&format!("{}  (calculated)", bar.label), bar.calculated);
    }
    chart.to_string()
}

/// Renders both figures.
#[must_use]
pub fn render(table2: &Table2Result, table45: &Table45Result) -> String {
    let fig6 = figure6_bars(table2, table45);
    let fig7 = figure7_bars(table45);
    let mut out = render_figure(
        "Figure 6 — tracking of one subject (paper: ~63% baseline rising to 100% \
         with 2x2 or 4 tags)",
        &fig6,
    );
    out.push('\n');
    out.push_str(&render_figure(
        "Figure 7 — tracking of two subjects (paper: ~56% baseline rising to ~100%)",
        &fig7,
    ));
    out.push_str(&shape_check_line(
        "redundancy raises tracking toward 100%",
        shape_holds(&fig6),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{table2, table45};
    use crate::Calibration;
    use rfid_sim::TrialExecutor;

    #[test]
    fn figures_derive_from_tables() {
        let cal = Calibration::default();
        let executor = TrialExecutor::serial();
        let t2 = table2::run(&cal, 4, 1, &executor);
        let t45 = table45::run(&cal, 4, 2, &executor);
        let fig6 = figure6_bars(&t2, &t45);
        assert_eq!(fig6.len(), 6);
        let fig7 = figure7_bars(&t45);
        assert_eq!(fig7.len(), 5);
        for bar in fig6.iter().chain(&fig7) {
            assert!((0.0..=1.0).contains(&bar.measured));
            assert!((0.0..=1.0).contains(&bar.calculated));
        }
        let text = render(&t2, &t45);
        assert!(text.contains("Figure 6"));
        assert!(text.contains("Figure 7"));
    }
}
