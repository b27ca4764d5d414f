//! Terminal bar charts for "figure" reproduction.
//!
//! The paper's Figures 5-7 are grouped bar charts (measured vs. calculated
//! reliability); this module renders the same series as horizontal ASCII
//! bars so the harness output is directly comparable to the figures.

use std::fmt;

/// A labelled horizontal bar chart.
///
/// # Examples
///
/// ```
/// let mut chart = rfid_stats::BarChart::new("Object tracking with redundancy", 40);
/// chart.bar("1 ant, 1 tag (measured)", 0.80);
/// chart.bar("1 ant, 1 tag (calculated)", 0.80);
/// chart.bar("2 ant, 2 tags (measured)", 1.00);
/// let text = chart.to_string();
/// assert!(text.contains("Object tracking"));
/// assert!(text.contains("100.0%"));
/// ```
#[derive(Debug, Clone)]
pub struct BarChart {
    title: String,
    width: usize,
    bars: Vec<(String, f64)>,
}

impl BarChart {
    /// Creates a chart with the given title and maximum bar width in
    /// characters. Values are reliabilities: a full-width bar is 1.0.
    #[must_use]
    pub fn new(title: &str, width: usize) -> Self {
        Self {
            title: title.to_owned(),
            width: width.max(1),
            bars: Vec::new(),
        }
    }

    /// Adds a bar. Values are clamped to `[0, 1]` for rendering but shown
    /// numerically as given.
    pub fn bar(&mut self, label: &str, value: f64) -> &mut Self {
        self.bars.push((label.to_owned(), value));
        self
    }

    /// Number of bars added.
    #[must_use]
    pub fn len(&self) -> usize {
        self.bars.len()
    }

    /// Whether the chart has no bars.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bars.is_empty()
    }
}

impl fmt::Display for BarChart {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.title)?;
        let label_width = self
            .bars
            .iter()
            .map(|(l, _)| l.chars().count())
            .max()
            .unwrap_or(0);
        for (label, value) in &self.bars {
            let frac = value.clamp(0.0, 1.0);
            let filled = (frac * self.width as f64).round() as usize;
            writeln!(
                f,
                "  {label:<label_width$} |{}{}| {:>6.1}%",
                "#".repeat(filled),
                " ".repeat(self.width - filled),
                value * 100.0
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_title_and_bars() {
        let mut c = BarChart::new("demo", 10);
        c.bar("a", 0.5).bar("b", 1.0);
        let text = c.to_string();
        assert!(text.starts_with("demo\n"));
        assert_eq!(text.lines().count(), 3);
        assert!(text.contains("#####"));
    }

    #[test]
    fn full_value_fills_the_bar() {
        let mut c = BarChart::new("demo", 8);
        c.bar("x", 1.0);
        assert!(c.to_string().contains(&"#".repeat(8)));
    }

    #[test]
    fn values_above_max_are_clamped_for_rendering() {
        let mut c = BarChart::new("demo", 8);
        c.bar("x", 2.0);
        let text = c.to_string();
        assert!(text.contains(&"#".repeat(8)));
        assert!(text.contains("200.0%"));
    }

    #[test]
    fn empty_chart_is_just_the_title() {
        let c = BarChart::new("empty", 10);
        assert!(c.is_empty());
        assert_eq!(c.to_string(), "empty\n");
    }
}
