//! Minimal table type for experiment reports.
//!
//! Every experiment produces one or more [`Table`]s; the examples print them
//! as markdown and EXPERIMENTS.md embeds them directly, so the format is
//! deliberately plain.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A cell value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Cell {
    /// Text cell.
    Text(String),
    /// Integer cell.
    Int(u64),
    /// Floating-point cell (rendered with three decimals).
    Float(f64),
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cell::Text(s) => write!(f, "{s}"),
            Cell::Int(v) => write!(f, "{v}"),
            Cell::Float(v) => write!(f, "{v:.3}"),
        }
    }
}

impl From<&str> for Cell {
    fn from(s: &str) -> Self {
        Cell::Text(s.to_string())
    }
}
impl From<String> for Cell {
    fn from(s: String) -> Self {
        Cell::Text(s)
    }
}
impl From<u64> for Cell {
    fn from(v: u64) -> Self {
        Cell::Int(v)
    }
}
impl From<usize> for Cell {
    fn from(v: usize) -> Self {
        Cell::Int(v as u64)
    }
}
impl From<f64> for Cell {
    fn from(v: f64) -> Self {
        Cell::Float(v)
    }
}

/// A simple rectangular table with named columns.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table {
    /// Table title.
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Rows of cells; every row has `columns.len()` entries.
    pub rows: Vec<Vec<Cell>>,
}

impl Table {
    /// Creates an empty table with the given title and columns.
    pub fn new(title: impl Into<String>, columns: &[&str]) -> Self {
        Table {
            title: title.into(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row length does not match the number of columns.
    pub fn push_row(&mut self, row: Vec<Cell>) {
        assert_eq!(
            row.len(),
            self.columns.len(),
            "row length must match column count"
        );
        self.rows.push(row);
    }

    /// Renders the table as GitHub-flavoured markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = format!("**{}**\n\n", self.title);
        out.push_str(&format!("| {} |\n", self.columns.join(" | ")));
        out.push_str(&format!(
            "|{}\n",
            self.columns.iter().map(|_| "---|").collect::<String>()
        ));
        for row in &self.rows {
            let cells: Vec<String> = row.iter().map(|c| c.to_string()).collect();
            out.push_str(&format!("| {} |\n", cells.join(" | ")));
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_markdown())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_render() {
        let mut t = Table::new("demo", &["strategy", "completion", "ratio"]);
        t.push_row(vec!["greedy".into(), 10u64.into(), 1.25f64.into()]);
        t.push_row(vec!["optimal".into(), Cell::Int(8), Cell::Float(1.0)]);
        let md = t.to_markdown();
        assert!(md.contains("**demo**"));
        assert!(md.contains("| greedy | 10 | 1.250 |"));
        assert!(md.contains("|---|---|---|"));
        assert_eq!(t.to_string(), md);
    }

    #[test]
    #[should_panic(expected = "row length")]
    fn mismatched_row_panics() {
        let mut t = Table::new("bad", &["a", "b"]);
        t.push_row(vec![1u64.into()]);
    }

    #[test]
    fn cell_conversions() {
        assert_eq!(Cell::from(3usize), Cell::Int(3));
        assert_eq!(Cell::from("x").to_string(), "x");
        assert_eq!(Cell::from(2.5f64).to_string(), "2.500");
    }
}
