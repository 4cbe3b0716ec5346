//! Plain-text table rendering for the experiment reports.
//!
//! No dependencies: every experiment binary prints its report through
//! this one renderer.

/// A simple column-aligned table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header arity).
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    /// Convenience: appends a row of displayable items.
    pub fn push<T: std::fmt::Display>(&mut self, cells: &[T]) -> &mut Self {
        let cells: Vec<String> = cells.iter().map(|c| c.to_string()).collect();
        self.row(&cells)
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no data rows were added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            out.push_str(&format!("== {} ==\n", self.title));
        }
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for (i, width) in widths.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                line.push_str(&format!("{cell:<width$}"));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// Formats a ratio as a percentage with one decimal.
pub fn pct(num: usize, den: usize) -> String {
    if den == 0 {
        "n/a".to_owned()
    } else {
        format!("{:.1}%", 100.0 * num as f64 / den as f64)
    }
}

/// Formats a boolean as a check-mark cell.
pub fn check(b: bool) -> String {
    if b {
        "yes".to_owned()
    } else {
        "NO".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.push(&["a", "1"]);
        t.push(&["longer-name", "22"]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("longer-name  22"));
        // Header padded to the widest cell.
        assert!(s.contains("name         value"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_checked() {
        let mut t = Table::new("", &["a", "b"]);
        t.row(&["only-one".to_owned()]);
    }

    #[test]
    fn helpers() {
        assert_eq!(pct(1, 2), "50.0%");
        assert_eq!(pct(0, 0), "n/a");
        assert_eq!(check(true), "yes");
        assert_eq!(check(false), "NO");
    }
}
