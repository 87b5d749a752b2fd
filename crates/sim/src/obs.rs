//! Observability wiring for the simulation engine.
//!
//! When [`crate::InstrumentKnobs::obs`] is enabled the engine keeps an
//! [`ObsState`] alongside the substrate's event [`mc_obs::Recorder`]:
//! a per-tick [`TimeSeries`] snapshot of the substrate and policy
//! counters (the `/proc/vmstat`-sampling analogue), per-tier access
//! latency histograms, and a capped access [`Trace`] for the report's
//! hottest-pages table. Everything here is dead weight the engine never
//! touches when observability is off.

use crate::config::SimConfig;
use crate::latency_hist::LatencyHistogram;
use crate::metrics::Metrics;
use mc_mem::{AccessKind, Charge, MemStats, MemorySystem, Nanos, TierId, VPage, PAGE_SIZE};
use mc_obs::{ReportBuilder, TimeSeries};
use mc_trace::{Trace, TraceEvent};
use std::cmp::Reverse;

/// Cap on access-trace entries retained for the hottest-pages table.
const MAX_TRACE_EVENTS: usize = 1 << 20;

/// How many of the hottest pages the run report lists.
const TOP_N: usize = 10;

/// Per-run observability state owned by the engine.
#[derive(Debug)]
pub(crate) struct ObsState {
    series: TimeSeries,
    /// Per tier, the latency of every application access it served: the
    /// report's per-tier table, with exact p50 / p99.
    tier_hists: Vec<LatencyHistogram>,
    trace: Trace,
    trace_dropped: u64,
}

impl ObsState {
    /// Fresh state for a machine with `tier_count` tiers.
    pub(crate) fn new(tier_count: usize) -> Self {
        ObsState {
            series: TimeSeries::new(),
            tier_hists: vec![LatencyHistogram::new(); tier_count],
            trace: Trace::new(),
            trace_dropped: 0,
        }
    }

    /// Records one application access: latency into the tier's histogram
    /// and, under the trace cap, an event for the hottest-pages table.
    pub(crate) fn on_access(
        &mut self,
        vpage: VPage,
        kind: AccessKind,
        bytes: usize,
        tier: TierId,
        latency: Nanos,
        now: Nanos,
    ) {
        if let Some(h) = self.tier_hists.get_mut(tier.index()) {
            h.record(latency);
        }
        if self.trace.len() < MAX_TRACE_EVENTS {
            self.trace.push(TraceEvent {
                at: now,
                vpage,
                kind,
                bytes: bytes.clamp(1, PAGE_SIZE) as u16,
            });
        } else {
            self.trace_dropped += 1;
        }
    }

    /// Appends one per-tick row: the substrate counters followed by the
    /// policy's own counters. Counter structs are append-only, so every
    /// column is monotone non-decreasing by construction.
    pub(crate) fn snapshot(
        &mut self,
        at: Nanos,
        stats: &MemStats,
        policy_counters: &[(&'static str, u64)],
    ) {
        // `tier_accesses` grows lazily with the first access per tier, so
        // pad to the machine's tier count: the column set must be stable
        // from the first row even when lower tiers are still untouched.
        let tier_cols: Vec<(String, u64)> = (0..self.tier_hists.len())
            .map(|i| {
                (
                    format!("tier{i}_accesses"),
                    stats.tier_accesses.get(i).copied().unwrap_or(0),
                )
            })
            .collect();
        let mut row: Vec<(&str, u64)> = vec![
            ("allocs", stats.allocs),
            ("frees", stats.frees),
            ("reads", stats.reads),
            ("writes", stats.writes),
            ("promotions", stats.promotions),
            ("demotions", stats.demotions),
            ("evictions", stats.evictions),
            ("swap_ins", stats.swap_ins),
            ("hint_faults", stats.hint_faults),
            ("migration_failures", stats.migration_failures),
        ];
        for (name, v) in &tier_cols {
            row.push((name.as_str(), *v));
        }
        for (name, v) in policy_counters {
            row.push((name, *v));
        }
        let pushed = self.series.push_row(at.as_nanos(), &row);
        debug_assert!(
            pushed.is_ok(),
            "per-tick snapshot columns drifted: {pushed:?}"
        );
    }

    /// The per-tick counter time series.
    pub(crate) fn series(&self) -> &TimeSeries {
        &self.series
    }

    /// Renders the human-readable run report.
    pub(crate) fn render_report(
        &self,
        cfg: &SimConfig,
        mem: &MemorySystem,
        metrics: &Metrics,
    ) -> String {
        let now = metrics.time.now();
        let mut r = ReportBuilder::new("MULTI-CLOCK run report");

        r.section("Run");
        r.kv("system", cfg.system.label());
        r.kv("tiers", mem.topology().tier_count().to_string());
        r.kv("scan_interval_ns", cfg.scan_interval.as_nanos().to_string());
        r.kv("virtual_time_ns", now.as_nanos().to_string());

        // Where the virtual time went: the on-clock categories sum to
        // `virtual_time_ns`, the off-clock two ran beside it.
        r.section("Cost breakdown");
        for c in Charge::ALL {
            r.kv(&format!("{}_ns", c.name()), metrics.time.get(c).as_nanos());
        }
        r.kv("hint_faults", metrics.hint_faults.to_string());
        r.kv("minor_faults", metrics.minor_faults.to_string());

        r.section("Migration");
        let secs = (now.as_nanos() as f64 / 1e9).max(f64::MIN_POSITIVE);
        r.kv("promotions", metrics.total_promotions().to_string());
        r.kv("demotions", metrics.total_demotions().to_string());
        r.kv(
            "promotions_per_sec",
            format!("{:.3}", metrics.total_promotions() as f64 / secs),
        );
        r.kv(
            "demotions_per_sec",
            format!("{:.3}", metrics.total_demotions() as f64 / secs),
        );
        r.kv(
            "reaccess_pct_overall",
            metrics
                .overall_reaccess_pct()
                .map_or("n/a".to_string(), |p| format!("{p:.1}")),
        );

        r.section("Windows (Figs. 8-9)");
        let rows: Vec<Vec<String>> = metrics
            .windows()
            .iter()
            .enumerate()
            .map(|(i, w)| {
                vec![
                    i.to_string(),
                    w.promotions.to_string(),
                    w.demotions.to_string(),
                    w.reaccess_pct()
                        .map_or("n/a".to_string(), |p| format!("{p:.1}")),
                    w.ops.to_string(),
                ]
            })
            .collect();
        r.table(
            &["window", "promotions", "demotions", "reaccess_pct", "ops"],
            &rows,
        );

        r.section("Per-tier access latency");
        let rows: Vec<Vec<String>> = self
            .tier_hists
            .iter()
            .enumerate()
            .map(|(i, h)| {
                let ns =
                    |v: Option<Nanos>| v.map_or("n/a".to_string(), |n| n.as_nanos().to_string());
                vec![
                    i.to_string(),
                    h.count().to_string(),
                    ns(h.mean()),
                    ns(h.percentile(50.0)),
                    ns(h.percentile(99.0)),
                ]
            })
            .collect();
        r.table(&["tier", "samples", "mean_ns", "p50_ns", "p99_ns"], &rows);

        r.section("Fig. 4 transitions");
        let hits = mem.recorder().fig4_hits();
        let rows: Vec<Vec<String>> = (1..hits.len())
            .map(|e| vec![e.to_string(), hits[e].to_string()])
            .collect();
        r.table(&["edge", "events"], &rows);

        r.section("Events");
        r.kv("emitted", mem.recorder().total().to_string());
        r.kv("retained", mem.recorder().events().count().to_string());
        r.kv("overwritten", mem.recorder().dropped().to_string());
        r.kv("ticks_sampled", self.series.len().to_string());

        if !self.trace.is_empty() {
            r.section("Hottest pages");
            let rows: Vec<Vec<String>> = hottest_pages(&self.trace, TOP_N)
                .into_iter()
                .map(|(p, n)| vec![p.to_string(), n.to_string()])
                .collect();
            r.table(&["vpage", "accesses"], &rows);
            if self.trace_dropped > 0 {
                r.kv("untraced_accesses", self.trace_dropped.to_string());
            }
        }

        r.finish()
    }
}

/// The `n` most-accessed pages of `trace` as `(page, accesses)`, hottest
/// first; ties go to the lower page so the order is deterministic.
fn hottest_pages(trace: &Trace, n: usize) -> Vec<(u64, usize)> {
    let mut pages: Vec<u64> = trace.events().iter().map(|e| e.vpage.raw()).collect();
    pages.sort_unstable();
    let mut ranked: Vec<(u64, usize)> = pages
        .chunk_by(|a, b| a == b)
        .map(|run| (run[0], run.len()))
        .collect();
    ranked.sort_unstable_by_key(|&(page, count)| (Reverse(count), page));
    ranked.truncate(n);
    ranked
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace_of(pages: &[u64]) -> Trace {
        pages
            .iter()
            .enumerate()
            .map(|(i, &p)| TraceEvent {
                at: Nanos::from_nanos(i as u64),
                vpage: VPage::new(p),
                kind: AccessKind::Read,
                bytes: 8,
            })
            .collect()
    }

    #[test]
    fn hottest_pages_rank_by_count_with_ties_to_the_lower_page() {
        let trace = trace_of(&[30, 10, 20, 30, 10, 40, 40, 40]);
        assert_eq!(
            hottest_pages(&trace, 10),
            [(40, 3), (10, 2), (30, 2), (20, 1)]
        );
        assert_eq!(hottest_pages(&trace, 2), [(40, 3), (10, 2)]);
        assert!(hottest_pages(&trace, 0).is_empty());
        assert!(hottest_pages(&Trace::new(), 5).is_empty());
    }
}
