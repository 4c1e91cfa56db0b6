//! Plain-text table formatting for the `repro` figures.

use std::fmt::Write as _;

/// A simple column-aligned plain-text table.
///
/// ```
/// use metrics::Table;
/// let mut t = Table::new(vec!["FTL", "RandRead MiB/s"]);
/// t.add_row(vec!["DFTL".to_string(), "412.3".to_string()]);
/// t.add_row(vec!["LearnedFTL".to_string(), "633.0".to_string()]);
/// let text = t.render();
/// assert!(text.contains("LearnedFTL"));
/// assert!(text.lines().count() >= 4);
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row. Rows shorter than the header are padded with blanks;
    /// longer rows are truncated.
    pub fn add_row(&mut self, row: Vec<String>) {
        let mut row = row;
        row.resize(self.header.len(), String::new());
        self.rows.push(row);
    }

    /// Convenience: appends a row of display-able values.
    pub fn add_display_row<D: std::fmt::Display>(&mut self, row: Vec<D>) {
        self.add_row(row.into_iter().map(|d| d.to_string()).collect());
    }

    /// Number of data rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Renders the table as column-aligned text with a separator under the
    /// header.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let render_row = |cells: &[String], widths: &[usize], out: &mut String| {
            for (i, cell) in cells.iter().enumerate() {
                let _ = write!(out, "{:<width$}  ", cell, width = widths[i]);
            }
            out.push('\n');
        };
        render_row(&self.header, &widths, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * cols;
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            render_row(row, &widths, &mut out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(vec!["a", "bbbb"]);
        t.add_row(vec!["xxxxxx".into(), "1".into()]);
        t.add_row(vec!["y".into(), "22".into()]);
        let text = t.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        // All rows have the same width up to trailing spaces.
        assert!(lines[0].starts_with("a"));
        assert!(lines[2].starts_with("xxxxxx"));
    }

    #[test]
    fn short_rows_are_padded_and_long_rows_truncated() {
        let mut t = Table::new(vec!["a", "b"]);
        t.add_row(vec!["only".into()]);
        t.add_display_row(vec![1, 2]);
        assert_eq!(t.row_count(), 2);
        let text = t.render();
        assert!(text.contains("only"));
        assert!(text.contains('1'));
    }
}
