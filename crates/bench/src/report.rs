//! What a generated section is made of: Markdown tables, the Fig. 1 heat
//! map, normalisation against static tiering, and the named [`Claim`]s
//! that pin the paper's evaluation shape.

use mc_sim::experiments::RunOutcome;
use mc_sim::SystemKind;

/// Normalises one figure metric to the static-tiering run in the set:
/// `|r| r.ops_per_sec` for Fig. 5's Y axis (higher is better),
/// `|r| r.trial_time.as_nanos() as f64` for Fig. 6's (lower is better).
/// Returns `(label, normalized value)` rows, or `None` when the set has
/// no static run or its value is not positive — there is no baseline to
/// divide by.
pub(crate) fn normalize_to_static(
    rows: &[RunOutcome],
    metric: impl Fn(&RunOutcome) -> f64,
) -> Option<Vec<(&'static str, f64)>> {
    let base = rows
        .iter()
        .find(|r| r.system == SystemKind::Static)
        .map(&metric)
        .filter(|base| *base > 0.0)?;
    Some(
        rows.iter()
            .map(|r| (r.system.label(), metric(r) / base))
            .collect(),
    )
}

/// Formats a Markdown table with padded columns: header, rule, data rows.
///
/// # Panics
///
/// When a row's width differs from the header's (a bug in the caller).
pub(crate) fn markdown_table<H: AsRef<str>>(headers: &[H], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers
        .iter()
        .map(|h| h.as_ref().chars().count().max(3))
        .collect();
    for row in rows {
        assert_eq!(row.len(), widths.len(), "row width mismatch");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.chars().count());
        }
    }
    let line = |cells: Vec<&str>| {
        let padded = cells.iter().zip(&widths).map(|(c, w)| format!("{c:<w$}"));
        format!("| {} |\n", padded.collect::<Vec<_>>().join(" | "))
    };
    let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    let mut out = line(headers.iter().map(AsRef::as_ref).collect());
    out.push_str(&line(rule.iter().map(String::as_str).collect()));
    for row in rows {
        out.push_str(&line(row.iter().map(String::as_str).collect()));
    }
    out
}

/// Renders a heat-map matrix (Fig. 1) as a text grid with intensity
/// characters: one text row per page, one column per time slice.
pub(crate) fn format_heatmap(matrix: &[Vec<u32>]) -> String {
    let ramp = [' ', '.', ':', '+', '*', '#', '@'];
    let max = matrix.iter().flatten().copied().max().unwrap_or(0).max(1);
    let pages = matrix.first().map_or(0, |r| r.len());
    let mut out = String::new();
    for p in (0..pages).rev() {
        out.push_str(&format!("page {p:>3} |"));
        for slice in matrix {
            let v = slice[p] as usize * (ramp.len() - 1) / max as usize;
            out.push(ramp[v.min(ramp.len() - 1)]);
        }
        out.push('\n');
    }
    out.push_str(&format!(
        "          +{} time ->\n",
        "-".repeat(matrix.len())
    ));
    out
}

/// What the source pins about a claim at the `--quick` scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expectation {
    /// The reproduction shows what the paper states.
    Holds,
    /// It does not, for the stated reason.
    Deviates(&'static str),
}

/// One sourced statement, checked against this run.
#[derive(Debug, Clone, PartialEq)]
pub struct Claim {
    /// `section.name`, unique across the document.
    pub id: String,
    /// Who states it: a part of the paper (`Fig. 5`, `§V-F`), a PAPERS.md
    /// arXiv id (`arXiv 2401.13154`) or, for an extension the paper does
    /// not state, its DESIGN.md section (`DESIGN.md §11`).
    pub source: &'static str,
    /// What the source states, as this run checks it.
    pub statement: &'static str,
    /// By how much the statement holds, in the unit the statement names
    /// (negative: by how much it fails).
    pub margin: f64,
    /// What the source pins for the `--quick` scale.
    pub expectation: Expectation,
}

impl Claim {
    /// Whether the measured outcome contradicts the pinned expectation —
    /// in either direction: a `Deviates` that starts holding must be
    /// re-pinned too.
    pub(crate) fn contradicts(&self) -> bool {
        (self.margin >= 0.0) != (self.expectation == Expectation::Holds)
    }

    /// The claim as a row of the claims table.
    pub(crate) fn row(&self) -> Vec<String> {
        let verb = if self.margin >= 0.0 { "holds" } else { "fails" };
        let outcome = format!("{verb} ({:+.2})", self.margin);
        let pinned = match self.expectation {
            Expectation::Holds => "holds".to_string(),
            Expectation::Deviates(why) => format!("deviates: {why}"),
        };
        vec![
            format!("`{}`", self.id),
            format!("{}: {}", self.source, self.statement),
            outcome,
            pinned,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_mem::Nanos;

    fn row(system: SystemKind, tput: f64, time_ms: u64) -> RunOutcome {
        RunOutcome {
            system,
            ops_per_sec: tput,
            trial_time: Nanos::from_millis(time_ms),
            promotions: 0,
            demotions: 0,
            reaccess_pct: None,
            top_tier_share: None,
            p50: None,
            p99: None,
            windows: Vec::new(),
            stats: Default::default(),
            counters: Vec::new(),
            dropped_accesses: 0,
            costs: mc_sim::CostBreakdown::default(),
        }
    }

    #[test]
    fn throughput_normalisation() {
        let rows = vec![
            row(SystemKind::Static, 100.0, 0),
            row(SystemKind::MultiClock, 220.0, 0),
        ];
        let n = normalize_to_static(&rows, |r| r.ops_per_sec).unwrap();
        assert_eq!(n[0], ("Static", 1.0));
        assert_eq!(n[1].0, "MULTI-CLOCK");
        assert!((n[1].1 - 2.2).abs() < 1e-9);
    }

    #[test]
    fn time_normalisation() {
        let rows = vec![
            row(SystemKind::Static, 0.0, 100),
            row(SystemKind::MultiClock, 0.0, 60),
        ];
        let n = normalize_to_static(&rows, |r| r.trial_time.as_nanos() as f64).unwrap();
        assert!((n[1].1 - 0.6).abs() < 1e-9, "lower is better");
    }

    #[test]
    fn table_formatting_aligns() {
        let t = markdown_table(
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["long-name".into(), "22".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0], "| name      | value |");
        assert_eq!(lines[1], "| --------- | ----- |");
        assert_eq!(lines[3], "| long-name | 22    |");
    }

    #[test]
    fn heatmap_renders_all_pages() {
        let m = vec![vec![0u32, 10], vec![10, 0]];
        let h = format_heatmap(&m);
        assert!(h.contains("page   0"));
        assert!(h.contains("page   1"));
        assert!(h.contains('@'), "max intensity appears");
    }

    #[test]
    fn normalisation_requires_static_baseline() {
        let rows = vec![row(SystemKind::MultiClock, 10.0, 0)];
        assert_eq!(normalize_to_static(&rows, |r| r.ops_per_sec), None);
        // A static run that measured nothing is no baseline either.
        let rows = vec![row(SystemKind::Static, 0.0, 0)];
        assert_eq!(normalize_to_static(&rows, |r| r.ops_per_sec), None);
    }
}
