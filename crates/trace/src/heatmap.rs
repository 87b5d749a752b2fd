//! Heat-map and window statistics over traces (Figs. 1-2 as functions of
//! *any* trace, not just the synthetic generators).

use crate::trace::Trace;
use mc_mem::{Nanos, VPage};
use std::collections::HashMap;

/// Per-page, per-window access counts computed from a trace.
#[derive(Debug, Clone)]
pub struct Heatmap {
    pages: Vec<VPage>,
    /// `counts[window][page_index]`.
    counts: Vec<Vec<u32>>,
}

impl Heatmap {
    /// Builds a heat map with the given window length over every page the
    /// trace touches (pages ordered by first id, like the paper's
    /// "sorted in ascending identifier order" Y axis).
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn build(trace: &Trace, window: Nanos) -> Self {
        assert!(window > Nanos::ZERO, "window must be positive");
        let mut pages: Vec<u64> = trace.events().iter().map(|e| e.vpage.raw()).collect();
        pages.sort_unstable();
        pages.dedup();
        let index: HashMap<u64, usize> = pages.iter().enumerate().map(|(i, p)| (*p, i)).collect();
        let start = trace.events().first().map(|e| e.at).unwrap_or(Nanos::ZERO);
        let windows = (trace.duration().as_nanos() / window.as_nanos()) as usize + 1;
        let mut counts = vec![vec![0u32; pages.len()]; windows];
        for e in trace.events() {
            let w = ((e.at - start).as_nanos() / window.as_nanos()) as usize;
            counts[w][index[&e.vpage.raw()]] += 1;
        }
        Heatmap {
            pages: pages.into_iter().map(VPage::new).collect(),
            counts,
        }
    }

    /// The pages on the Y axis, ascending.
    pub fn pages(&self) -> &[VPage] {
        &self.pages
    }

    /// The count matrix, window-major.
    pub fn counts(&self) -> &[Vec<u32>] {
        &self.counts
    }

    /// Total accesses per page across all windows.
    pub fn totals(&self) -> Vec<u32> {
        let mut t = vec![0u32; self.pages.len()];
        for row in &self.counts {
            for (i, c) in row.iter().enumerate() {
                t[i] += c;
            }
        }
        t
    }

    /// The `n` hottest pages as `(page, total accesses)`, hottest first.
    /// Ties break toward the lower page id so the order is deterministic.
    pub fn top_n(&self, n: usize) -> Vec<(VPage, u32)> {
        let totals = self.totals();
        let mut ranked: Vec<(VPage, u32)> = self.pages.iter().copied().zip(totals).collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.raw().cmp(&b.0.raw())));
        ranked.truncate(n);
        ranked
    }

    /// The Fig. 2 statistic: mean accesses in the performance window for
    /// pages accessed `(once, multiple-times)` in the preceding
    /// observation window, over all adjacent window pairs.
    pub fn once_vs_multi(&self) -> (f64, f64) {
        let mut once = Vec::new();
        let mut multi = Vec::new();
        let mut w = 0;
        while w + 1 < self.counts.len() {
            for p in 0..self.pages.len() {
                let obs = self.counts[w][p];
                let perf = self.counts[w + 1][p] as f64;
                match obs {
                    1 => once.push(perf),
                    x if x > 1 => multi.push(perf),
                    _ => {}
                }
            }
            w += 2;
        }
        let mean = |v: &[f64]| {
            if v.is_empty() {
                0.0
            } else {
                v.iter().sum::<f64>() / v.len() as f64
            }
        };
        (mean(&once), mean(&multi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceEvent;
    use mc_mem::AccessKind;

    fn ev(at_us: u64, page: u64) -> TraceEvent {
        TraceEvent {
            at: Nanos::from_micros(at_us),
            vpage: VPage::new(page),
            kind: AccessKind::Read,
            bytes: 8,
        }
    }

    #[test]
    fn counts_land_in_the_right_windows() {
        let trace: Trace = [ev(0, 10), ev(5, 10), ev(15, 20), ev(25, 10)]
            .into_iter()
            .collect();
        let h = Heatmap::build(&trace, Nanos::from_micros(10));
        assert_eq!(h.pages(), &[VPage::new(10), VPage::new(20)]);
        assert_eq!(h.counts().len(), 3);
        assert_eq!(h.counts()[0], vec![2, 0]);
        assert_eq!(h.counts()[1], vec![0, 1]);
        assert_eq!(h.counts()[2], vec![1, 0]);
        assert_eq!(h.totals(), vec![3, 1]);
    }

    #[test]
    fn once_vs_multi_statistic() {
        // Window pairs: (w0 obs, w1 perf). Page 1: obs 2 -> perf 4.
        // Page 2: obs 1 -> perf 0.
        let mut events = vec![ev(0, 1), ev(1, 1), ev(2, 2)];
        for i in 0..4 {
            events.push(ev(10 + i, 1));
        }
        let trace: Trace = events.into_iter().collect();
        let h = Heatmap::build(&trace, Nanos::from_micros(10));
        let (once, multi) = h.once_vs_multi();
        assert_eq!(once, 0.0);
        assert_eq!(multi, 4.0);
    }

    #[test]
    fn empty_trace_yields_empty_heatmap() {
        let h = Heatmap::build(&Trace::new(), Nanos::from_micros(10));
        assert!(h.pages().is_empty());
        assert_eq!(h.once_vs_multi(), (0.0, 0.0));
        assert!(h.top_n(5).is_empty());
    }

    #[test]
    fn top_n_ranks_hottest_first_with_deterministic_ties() {
        let trace: Trace = [ev(0, 10), ev(1, 10), ev(2, 20), ev(3, 30), ev(4, 30)]
            .into_iter()
            .collect();
        let h = Heatmap::build(&trace, Nanos::from_micros(10));
        let top = h.top_n(2);
        assert_eq!(top, vec![(VPage::new(10), 2), (VPage::new(30), 2)]);
        assert_eq!(h.top_n(10).len(), 3);
    }
}
