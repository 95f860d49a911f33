//! Small reporting helpers: aligned text tables and JSON result dumps.
//!
//! The JSON side is a deliberately tiny, dependency-free encoder: result
//! rows implement [`ToJson`] by hand (usually one [`json_object`] call), so
//! experiment outputs stay machine-readable without pulling a serialisation
//! framework into the workspace.

use std::fmt::Display;
use std::fs;
use std::path::Path;

/// A value that can render itself as a JSON document.
pub trait ToJson {
    /// The JSON text of this value.
    fn to_json(&self) -> String;
}

macro_rules! impl_tojson_display {
    ($($t:ty),*) => {
        $(impl ToJson for $t {
            fn to_json(&self) -> String {
                self.to_string()
            }
        })*
    };
}

impl_tojson_display!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize, bool);

impl ToJson for f64 {
    fn to_json(&self) -> String {
        if self.is_finite() {
            self.to_string()
        } else {
            // JSON has no NaN/Infinity; null is the conventional stand-in.
            "null".to_string()
        }
    }
}

impl ToJson for str {
    fn to_json(&self) -> String {
        json_string(self)
    }
}

impl ToJson for String {
    fn to_json(&self) -> String {
        json_string(self)
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> String {
        self.as_slice().to_json()
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> String {
        let items: Vec<String> = self.iter().map(|v| v.to_json()).collect();
        format!("[\n  {}\n]", items.join(",\n  "))
    }
}

/// Escape and quote a string for JSON.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Build a JSON object from already-encoded field values.
pub fn json_object(fields: &[(&str, String)]) -> String {
    let parts: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {}", json_string(k), v))
        .collect();
    format!("{{{}}}", parts.join(", "))
}

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

/// Write `value` as JSON to `path` (creating parent directories).
pub fn write_json<T: ToJson + ?Sized>(path: &Path, value: &T) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)?;
    }
    fs::write(path, value.to_json())
}

/// If the process was given a path argument, write the JSON results there.
/// Flag-style arguments (leading `-`) are ignored — `cargo bench` passes
/// `--bench` to every bench binary.
pub fn maybe_write_json_from_args<T: ToJson + ?Sized>(value: &T) {
    if let Some(path) = std::env::args().skip(1).find(|a| !a.starts_with('-')) {
        match write_json(Path::new(&path), value) {
            Ok(()) => println!("\nresults written to {path}"),
            Err(e) => eprintln!("\nfailed to write {path}: {e}"),
        }
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

    #[test]
    fn write_json_round_trip() {
        let dir = std::env::temp_dir().join("rt_bench_report_test");
        let path = dir.join("out.json");
        write_json(&path, &vec![1u32, 2, 3]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let compact: String = text.chars().filter(|c| !c.is_whitespace()).collect();
        assert_eq!(compact, "[1,2,3]");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn json_values_encode_correctly() {
        assert_eq!(42u64.to_json(), "42");
        assert_eq!(true.to_json(), "true");
        assert_eq!(1.5f64.to_json(), "1.5");
        assert_eq!(f64::NAN.to_json(), "null");
        assert_eq!("a\"b\\c\nd".to_json(), r#""a\"b\\c\nd""#);
        assert_eq!(
            json_object(&[("x", 1u64.to_json()), ("name", "hi".to_json())]),
            r#"{"x": 1, "name": "hi"}"#
        );
    }
}
