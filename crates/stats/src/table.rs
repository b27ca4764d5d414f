//! Plain-text table rendering for experiment reports.

use std::fmt;

/// Column alignment for [`Table`] rendering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Align {
    /// Left-aligned (default).
    #[default]
    Left,
    /// Right-aligned, typical for numbers.
    Right,
    /// Centered.
    Center,
}

/// A simple monospace table builder.
///
/// Used by the experiment harness to print paper-style tables side by side
/// with the reproduction's measured values.
///
/// # Examples
///
/// ```
/// use rfid_stats::{Table, Align};
///
/// let mut t = Table::new(vec!["Tag location".into(), "Reliability".into()]);
/// t.align(1, Align::Right);
/// t.row(vec!["Front".into(), "87%".into()]);
/// t.row(vec!["Top".into(), "29%".into()]);
/// let text = t.to_string();
/// assert!(text.contains("Front"));
/// assert!(text.lines().count() >= 4);
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    aligns: Vec<Align>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    #[must_use]
    pub fn new(headers: Vec<String>) -> Self {
        let cols = headers.len();
        Self {
            headers,
            aligns: vec![Align::Left; cols],
            rows: Vec::new(),
        }
    }

    /// Sets the alignment of column `col`.
    ///
    /// # Panics
    ///
    /// Panics if `col` is out of range.
    pub fn align(&mut self, col: usize, align: Align) -> &mut Self {
        assert!(col < self.headers.len(), "column index out of range");
        self.aligns[col] = align;
        self
    }

    /// Appends a data row. Short rows are padded with empty cells; long rows
    /// are truncated to the header width.
    pub fn row(&mut self, mut cells: Vec<String>) -> &mut Self {
        cells.resize(self.headers.len(), String::new());
        self.rows.push(cells);
        self
    }

    fn widths(&self) -> Vec<usize> {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.chars().count());
                }
            }
        }
        widths
    }

    fn pad(cell: &str, width: usize, align: Align) -> String {
        let len = cell.chars().count();
        let gap = width.saturating_sub(len);
        match align {
            Align::Left => format!("{cell}{}", " ".repeat(gap)),
            Align::Right => format!("{}{cell}", " ".repeat(gap)),
            Align::Center => {
                let left = gap / 2;
                format!("{}{cell}{}", " ".repeat(left), " ".repeat(gap - left))
            }
        }
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let widths = self.widths();
        let rule: String = widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("+");
        let render_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!(" {} ", Self::pad(c, widths[i], self.aligns[i])))
                .collect::<Vec<_>>()
                .join("|")
        };
        writeln!(f, "{}", render_row(&self.headers))?;
        writeln!(f, "{rule}")?;
        for row in &self.rows {
            writeln!(f, "{}", render_row(row))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_table() -> Table {
        let mut t = Table::new(vec!["loc".into(), "rel".into()]);
        t.align(1, Align::Right);
        t.row(vec!["Front".into(), "87%".into()]);
        t.row(vec!["Average".into(), "63%".into()]);
        t
    }

    #[test]
    fn renders_all_rows() {
        let text = sample_table().to_string();
        let lines: Vec<&str> = text.lines().collect();
        // header + rule + two rows
        assert_eq!(lines.len(), 4);
        assert!(lines[2].contains("Front"));
        assert!(lines[3].contains("Average"));
    }

    #[test]
    fn columns_are_aligned() {
        let text = sample_table().to_string();
        let pipe_positions: Vec<Vec<usize>> = text
            .lines()
            .filter(|l| l.contains('|'))
            .map(|l| {
                l.char_indices()
                    .filter(|(_, c)| *c == '|')
                    .map(|(i, _)| i)
                    .collect()
            })
            .collect();
        for w in pipe_positions.windows(2) {
            assert_eq!(w[0], w[1], "pipe columns should line up");
        }
    }

    #[test]
    fn right_alignment_pads_on_the_left() {
        assert_eq!(Table::pad("7", 3, Align::Right), "  7");
        assert_eq!(Table::pad("7", 3, Align::Left), "7  ");
        assert_eq!(Table::pad("7", 3, Align::Center), " 7 ");
    }

    #[test]
    fn short_rows_are_padded() {
        let mut t = Table::new(vec!["a".into(), "b".into(), "c".into()]);
        t.row(vec!["x".into()]);
        let text = t.to_string();
        assert!(text.lines().count() == 3);
    }

    #[test]
    #[should_panic(expected = "column index out of range")]
    fn align_validates_column() {
        Table::new(vec!["a".into()]).align(5, Align::Right);
    }
}
