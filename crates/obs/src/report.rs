//! A plain-text run-report builder: titled sections, key/value lines and
//! aligned tables, written for terminal reading and diff-friendly enough
//! to snapshot in tests.

/// Builds a human-readable run report incrementally.
#[derive(Debug, Default)]
pub struct ReportBuilder {
    out: String,
}

impl ReportBuilder {
    /// An empty report.
    pub fn new(title: &str) -> Self {
        let mut b = ReportBuilder { out: String::new() };
        b.out.push_str(title);
        b.out.push('\n');
        b.out.push_str(&"=".repeat(title.chars().count()));
        b.out.push('\n');
        b
    }

    /// Starts a new titled section.
    pub fn section(&mut self, title: &str) {
        self.out.push('\n');
        self.out.push_str(title);
        self.out.push('\n');
        self.out.push_str(&"-".repeat(title.chars().count()));
        self.out.push('\n');
    }

    /// Appends one `key: value` line.
    pub fn kv(&mut self, key: &str, value: impl std::fmt::Display) {
        self.out.push_str(&format!("  {key}: {value}\n"));
    }

    /// Appends an aligned table. Rows shorter than the header are padded
    /// with empty cells.
    pub fn table(&mut self, headers: &[&str], rows: &[Vec<String>]) {
        let cols = headers.len();
        let mut widths: Vec<usize> = headers.iter().map(|h| h.chars().count()).collect();
        for row in rows {
            for (i, cell) in row.iter().take(cols).enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let mut render = |cells: &[String]| {
            let mut line = String::from("  ");
            for (i, width) in widths.iter().enumerate() {
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                line.push_str(&format!("{cell:<width$}"));
                if i + 1 < cols {
                    line.push_str("  ");
                }
            }
            self.out.push_str(line.trim_end());
            self.out.push('\n');
        };
        render(
            &headers
                .iter()
                .map(|h| h.to_string())
                .collect::<Vec<String>>(),
        );
        render(
            &widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<String>>(),
        );
        for row in rows {
            render(row);
        }
    }

    /// Finishes the report and returns the text.
    pub fn finish(self) -> String {
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_layout_is_stable() {
        let mut b = ReportBuilder::new("run report");
        b.section("counters");
        b.kv("ticks", 12);
        b.table(
            &["tier", "accesses"],
            &[
                vec!["0".to_string(), "100".to_string()],
                vec!["1".to_string(), "7".to_string()],
            ],
        );
        let text = b.finish();
        assert!(text.starts_with("run report\n==========\n"));
        assert!(text.contains("counters\n--------\n"));
        assert!(text.contains("  ticks: 12\n"));
        assert!(text.contains("  tier  accesses"));
        assert!(text.contains("  1     7"));
    }

    #[test]
    fn short_rows_are_padded() {
        let mut b = ReportBuilder::new("t");
        b.table(&["a", "b"], &[vec!["x".to_string()]]);
        let text = b.finish();
        assert!(text.contains("  x\n"));
    }
}
