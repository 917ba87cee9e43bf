//! Plain-text table rendering for the `repro` harness.
//!
//! Every table and figure regenerator prints its rows through [`Table`] so
//! the output is aligned and diff-friendly, mirroring the rows the paper
//! reports.

use std::fmt::Write as _;

/// A simple monospace table builder.
///
/// # Example
///
/// ```
/// use mallacc_stats::table::Table;
///
/// let mut t = Table::new(&["workload", "speedup"]);
/// t.row(&["xapian.pages", "41.2%"]);
/// let s = t.render();
/// assert!(s.contains("xapian.pages"));
/// assert!(s.contains("speedup"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers. The first column is
    /// left-aligned, the rest right-aligned (label + numbers convention).
    pub fn new(headers: &[&str]) -> Self {
        Self {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: &[&str]) {
        assert_eq!(cells.len(), self.headers.len(), "row/column count mismatch");
        self.rows
            .push(cells.iter().map(|s| s.to_string()).collect());
    }

    /// Appends a row of already-owned cells.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row_owned(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row/column count mismatch");
        self.rows.push(cells);
    }

    /// Number of data rows so far.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with a header underline.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let mut out = String::new();
        let emit = |out: &mut String, cells: &[String]| {
            for i in 0..ncols {
                if i > 0 {
                    out.push_str("  ");
                }
                let cell = &cells[i];
                let pad = widths[i] - cell.chars().count();
                if i == 0 {
                    out.push_str(cell);
                    if ncols > 1 {
                        out.extend(std::iter::repeat_n(' ', pad));
                    }
                } else {
                    out.extend(std::iter::repeat_n(' ', pad));
                    out.push_str(cell);
                }
            }
            out.push('\n');
        };
        emit(&mut out, &self.headers);
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            emit(&mut out, row);
        }
        out
    }
}

/// Formats a fraction as a percentage with one decimal, e.g. `0.412` → `41.2%`.
pub fn pct(frac: f64) -> String {
    format!("{:.1}%", frac * 100.0)
}

/// Formats a fraction as a signed percentage with two decimals, e.g.
/// `0.0043` → `+0.43%`.
pub fn pct_signed(frac: f64) -> String {
    format!("{:+.2}%", frac * 100.0)
}

/// Formats a cycle count with no decimals.
pub fn cycles(c: f64) -> String {
    format!("{c:.0}")
}

/// Renders a horizontal ASCII bar scaled so `max_value` spans `width` chars.
///
/// Used by the figure regenerators to sketch bar charts in the terminal.
///
/// # Example
///
/// ```
/// let bar = mallacc_stats::table::bar(5.0, 10.0, 10);
/// assert_eq!(bar.chars().count(), 5);
/// ```
pub fn bar(value: f64, max_value: f64, width: usize) -> String {
    if max_value <= 0.0 || value <= 0.0 {
        return String::new();
    }
    let n = ((value / max_value) * width as f64).round() as usize;
    "#".repeat(n.min(width))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(&["name", "value"]);
        t.row(&["a", "1"]);
        t.row(&["longer-name", "123"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // Numbers right-aligned: "1" ends at same column as "123".
        assert!(lines[2].ends_with('1'));
        assert!(lines[3].ends_with("123"));
    }

    #[test]
    #[should_panic(expected = "row/column count mismatch")]
    fn rejects_ragged_rows() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["only-one"]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.412), "41.2%");
        assert_eq!(pct_signed(0.0043), "+0.43%");
        assert_eq!(pct_signed(-0.01), "-1.00%");
        assert_eq!(cycles(18.4), "18");
    }

    #[test]
    fn bar_scaling() {
        assert_eq!(bar(10.0, 10.0, 20).len(), 20);
        assert_eq!(bar(0.0, 10.0, 20), "");
        assert_eq!(bar(15.0, 10.0, 20).len(), 20); // clamped
        assert_eq!(bar(5.0, 0.0, 20), "");
    }

    #[test]
    fn left_alignment_for_labels() {
        let mut t = Table::new(&["label", "x"]);
        t.row(&["ab", "1"]);
        let s = t.render();
        assert!(s.lines().nth(2).unwrap().starts_with("ab"));
    }
}
