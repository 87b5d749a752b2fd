//! Report formatting for the figure binaries: normalisation against
//! static tiering and aligned-text tables (the figures are emitted as
//! data series, like the paper's plots).

use crate::experiments::RunOutcome;

/// Normalises one figure metric to the static-tiering run in the set:
/// `|r| r.ops_per_sec` for Fig. 5's Y axis (higher is better),
/// `|r| r.trial_time.as_nanos() as f64` for Fig. 6's (lower is better).
/// Returns `(label, normalized value)` rows, or `None` when the set has
/// no static run or its value is not positive — there is no baseline to
/// divide by.
pub fn normalize_to_static(
    rows: &[RunOutcome],
    metric: impl Fn(&RunOutcome) -> f64,
) -> Option<Vec<(&'static str, f64)>> {
    let base = rows
        .iter()
        .find(|r| r.system == crate::SystemKind::Static)
        .map(&metric)
        .filter(|base| *base > 0.0)?;
    Some(
        rows.iter()
            .map(|r| (r.system.label(), metric(r) / base))
            .collect(),
    )
}

/// Formats a simple aligned table: a header row and data rows.
pub fn format_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "row width mismatch");
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: Vec<&str>, widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, c) in cells.iter().enumerate() {
            line.push_str(&format!("{:<w$}  ", c, w = widths[i]));
        }
        line.trim_end().to_string()
    };
    out.push_str(&fmt_row(headers.to_vec(), &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row.iter().map(|s| s.as_str()).collect(), &widths));
        out.push('\n');
    }
    out
}

/// Renders a heat-map matrix (Fig. 1) as a text grid with intensity
/// characters, plus the raw CSV-ish numbers.
pub fn format_heatmap(matrix: &[Vec<u32>]) -> String {
    let ramp = [' ', '.', ':', '+', '*', '#', '@'];
    let max = matrix
        .iter()
        .flat_map(|r| r.iter())
        .copied()
        .max()
        .unwrap_or(0)
        .max(1);
    let pages = matrix.first().map_or(0, |r| r.len());
    let mut out = String::new();
    // One text row per page (Y axis), one column per time slice (X axis).
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SystemKind;
    use mc_mem::Nanos;

    fn row(system: SystemKind, tput: f64, time_ms: u64) -> RunOutcome {
        RunOutcome {
            system,
            ops_per_sec: tput,
            trial_time: Nanos::from_millis(time_ms),
            promotions: 0,
            demotions: 0,
            reaccess_pct: None,
            hint_faults: 0,
            top_tier_share: None,
            p50: None,
            p99: None,
            windows: Vec::new(),
            injected_faults: 0,
            migration_failures: 0,
            promote_retries: 0,
            promote_gave_ups: 0,
            txn_commits: 0,
            txn_aborts: 0,
            shadow_hits: 0,
            dropped_accesses: 0,
            costs: crate::metrics::CostBreakdown::default(),
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
        let t = format_table(
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["long-name".into(), "22".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[3].starts_with("long-name"));
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
