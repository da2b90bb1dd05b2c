//! Plain-text table rendering for experiment reports.

/// A simple column-aligned text table.
///
/// # Example
///
/// ```
/// use siteselect_core::report::TextTable;
///
/// let mut t = TextTable::new(vec!["clients".into(), "success %".into()]);
/// t.row(vec!["20".into(), "91.3".into()]);
/// let s = t.render();
/// assert!(s.contains("clients"));
/// assert!(s.contains("91.3"));
/// ```
#[derive(Debug, Clone)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    #[must_use]
    pub fn new(headers: Vec<String>) -> Self {
        TextTable {
            headers,
            rows: Vec::new(),
        }
    }

    /// Appends a row (padded/truncated to the header width).
    pub fn row(&mut self, mut cells: Vec<String>) {
        cells.resize(self.headers.len(), String::new());
        self.rows.push(cells);
    }

    /// Number of data rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the table has no data rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with aligned columns and a separator line.
    #[must_use]
    #[expect(clippy::indexing_slicing, reason = "i < cols == widths.len() via take(cols)")]
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            // Zip instead of indexing: a row wider than the header row
            // renders its extra cells unaligned rather than panicking.
            for (i, (cell, width)) in cells.iter().zip(widths).enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{cell:>width$}"));
            }
            for cell in cells.iter().skip(widths.len()) {
                line.push_str("  ");
                line.push_str(cell);
            }
            line
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols.saturating_sub(1));
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Formats a float with the given number of decimals.
#[must_use]
pub fn fnum(v: f64, decimals: usize) -> String {
    format!("{v:.decimals$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new(vec!["a".into(), "long header".into()]);
        t.row(vec!["1".into(), "2".into()]);
        t.row(vec!["100".into(), "x".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[1].chars().all(|c| c == '-'));
        // All lines same width alignment: last column right-aligned.
        assert!(lines[2].ends_with('2'));
        assert!(lines[3].ends_with('x'));
    }

    #[test]
    fn short_rows_are_padded() {
        let mut t = TextTable::new(vec!["a".into(), "b".into(), "c".into()]);
        t.row(vec!["1".into()]);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
        let s = t.render();
        assert!(s.lines().count() == 3);
    }

    #[test]
    fn fnum_formats() {
        assert_eq!(fnum(3.45678, 2), "3.46");
        assert_eq!(fnum(10.0, 0), "10");
    }
}
