//! Plain-text and CSV rendering of experiment results.

/// A simple column-aligned result table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    /// Table title (the experiment id and caption).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows, stringified by the experiment.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row width must match header width"
        );
        self.rows.push(row);
    }

    /// The table exactly as `repro` prints it per experiment: CSV, or
    /// the aligned text followed by a blank line. Served `experiment`
    /// payloads and fleet outputs use the same rendering.
    pub fn render(&self, csv: bool) -> String {
        if csv {
            self.to_csv()
        } else {
            format!("{}\n", self.to_text())
        }
    }

    /// Renders the table as aligned monospace text.
    pub fn to_text(&self) -> String {
        let ncol = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("## {}\n", self.title));
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for (i, (cell, w)) in cells.iter().zip(&widths).enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{cell:<w$}"));
            }
            line.trim_end().to_owned()
        };
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncol - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Renders the table as CSV (header row first; quotes cells
    /// containing commas or quotes).
    pub fn to_csv(&self) -> String {
        let escape = |cell: &str| -> String {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_owned()
            }
        };
        let mut out = String::new();
        out.push_str(
            &self
                .headers
                .iter()
                .map(|h| escape(h))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

/// Formats a float with the given precision (helper for experiments).
pub fn fmt(value: f64, precision: usize) -> String {
    format!("{value:.precision$}")
}

/// Formats in scientific notation with 2 decimal places (doping etc.).
pub fn fmt_e(value: f64) -> String {
    format!("{value:.2e}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("Demo", &["node", "value"]);
        t.push_row(vec!["90nm".into(), "1.0".into()]);
        t.push_row(vec!["65nm".into(), "0.85".into()]);
        t
    }

    #[test]
    fn text_is_aligned() {
        let text = sample().to_text();
        assert!(text.contains("## Demo"));
        let lines: Vec<&str> = text.lines().collect();
        // header, rule, two rows
        assert_eq!(lines.len(), 5);
        assert!(lines[1].starts_with("node"));
        assert!(lines[2].starts_with('-'));
    }

    #[test]
    fn csv_round_trips_simple_cells() {
        let csv = sample().to_csv();
        assert_eq!(csv.lines().count(), 3);
        assert_eq!(csv.lines().next().unwrap(), "node,value");
    }

    #[test]
    fn csv_escapes_commas_and_quotes() {
        let mut t = Table::new("x", &["a"]);
        t.push_row(vec!["hello, \"world\"".into()]);
        assert!(t.to_csv().contains("\"hello, \"\"world\"\"\""));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn rejects_ragged_rows() {
        let mut t = Table::new("x", &["a", "b"]);
        t.push_row(vec!["only-one".into()]);
    }

    #[test]
    fn float_helpers() {
        assert_eq!(fmt(1.2345, 2), "1.23");
        assert_eq!(fmt_e(1.52e18), "1.52e18");
    }
}
