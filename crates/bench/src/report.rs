//! An aligned text table: the one reporting helper the experiment binaries
//! share.

use std::fmt::Display;

/// A simple aligned text table.
#[derive(Debug, Default, Clone)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Create a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must have as many cells as the header).
    pub fn row(&mut self, cells: &[&dyn Display]) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row has {} cells, header has {}",
            cells.len(),
            self.header.len()
        );
        self.rows
            .push(cells.iter().map(|c| c.to_string()).collect());
        self
    }

    /// Append a row of already-formatted strings.
    pub fn row_strings(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.header.len());
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render with padded columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for i in 0..cols {
                if i > 0 {
                    line.push_str("  ");
                }
                let cell = &cells[i];
                // Right-align numerics, left-align text, by simple heuristic.
                if cell.chars().next().is_some_and(|c| c.is_ascii_digit()) {
                    line.push_str(&format!("{cell:>width$}", width = widths[i]));
                } else {
                    line.push_str(&format!("{cell:<width$}", width = widths[i]));
                }
            }
            line
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_columns() {
        let mut t = Table::new(&["name", "value"]);
        t.row(&[&"alpha", &42u32]);
        t.row(&[&"b", &7u32]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[2].contains("alpha"));
        // Numeric column is right-aligned: "42" and " 7" end at same column.
        assert_eq!(lines[2].len(), lines[3].len());
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "cells")]
    fn mismatched_row_panics() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&[&1u32]);
    }
}
