//! Report emitters for the per-figure binaries: aligned text tables or
//! CSV, and the energy and percent formatting they share.

/// A simple column-aligned text table (monospace output for terminals and
/// markdown code blocks).
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header width).
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row width must match header"
        );
        self.rows.push(cells.to_vec());
        self
    }

    /// Render with space-padded, column-aligned cells.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for i in 0..cols {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:<w$}", cells[i], w = widths[i]));
            }
            line.trim_end().to_string()
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

    /// Render as CSV (no quoting; cells must not contain commas).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.header.join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }

    /// Print to stdout as CSV when `csv` (the binaries' `--csv` flag),
    /// else as the aligned text table.
    pub fn print(&self, csv: bool) {
        if csv {
            print!("{}", self.to_csv());
        } else {
            print!("{}", self.render());
        }
    }
}

/// Format a percentage with one decimal.
pub fn fmt_percent(p: f64) -> String {
    format!("{p:+.1}%")
}

/// Convert Joules to kWh.
pub fn joules_to_kwh(j: f64) -> f64 {
    j / 3_600_000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_render_aligned() {
        let mut t = Table::new(&["name", "value"]);
        t.row(&["a".into(), "1".into()]);
        t.row(&["longer".into(), "22".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[2].starts_with("a"));
        // Columns aligned: "value" column starts at the same offset.
        let col = lines[0].find("value").unwrap();
        assert_eq!(&lines[3][col..col + 2], "22");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn table_csv() {
        let mut t = Table::new(&["x", "y"]);
        t.row(&["1".into(), "2".into()]);
        assert_eq!(t.to_csv(), "x,y\n1,2\n");
    }

    #[test]
    fn unit_conversions() {
        assert_eq!(joules_to_kwh(3_600_000.0), 1.0);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_percent(32.0), "+32.0%");
        assert_eq!(fmt_percent(-6.8), "-6.8%");
    }
}
