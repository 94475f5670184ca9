//! A tiny aligned-text table writer (with CSV export) for experiment
//! output. No serialization framework needed.

use std::fmt::Write as _;

/// A simple table: header + rows of strings.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table title (printed above the header).
    pub title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given title and column names.
    pub fn new(title: &str, header: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; its length must match the header.
    pub fn row<S: ToString>(&mut self, cells: &[S]) {
        let row: Vec<String> = cells.iter().map(|c| c.to_string()).collect();
        assert_eq!(row.len(), self.header.len(), "row width must match header");
        self.rows.push(row);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the aligned text form.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.chars().count());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |cells: &[String], widths: &[usize]| {
            let mut s = String::new();
            for (i, (cell, w)) in cells.iter().zip(widths).enumerate() {
                if i > 0 {
                    s.push_str("  ");
                }
                let pad = w - cell.chars().count();
                s.push_str(cell);
                s.extend(std::iter::repeat_n(' ', pad));
            }
            s.trim_end().to_string()
        };
        let _ = writeln!(out, "{}", line(&self.header, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }

    /// Renders CSV (RFC-4180-ish; quotes cells containing commas/quotes).
    pub fn to_csv(&self) -> String {
        let esc = |s: &str| {
            if s.contains(',') || s.contains('"') || s.contains('\n') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let mut out = String::new();
        let _ =
            writeln!(out, "{}", self.header.iter().map(|h| esc(h)).collect::<Vec<_>>().join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(&["alpha", "1"]);
        t.row(&["b", "22222"]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        let lines: Vec<&str> = s.lines().collect();
        // Title, header, separator, two rows.
        assert_eq!(lines.len(), 5);
        assert!(lines[3].starts_with("alpha"));
    }

    #[test]
    fn csv_escapes_commas_and_quotes() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(&["hello, world", "say \"hi\""]);
        let csv = t.to_csv();
        assert!(csv.contains("\"hello, world\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_is_checked() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(&["only-one"]);
    }
}
