//! Windowed metrics: promotion counts (Fig. 8), re-access percentages of
//! recently promoted pages (Fig. 9) and the cost breakdown (§V-F).

use mc_mem::{Charge, Nanos, TimeLedger, VPage};
use std::collections::BTreeMap;

/// Where time went over a run: the §V-F view of the run's [`TimeLedger`],
/// computed by [`Metrics::costs`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CostBreakdown {
    /// Device access time the application spent.
    pub access_time: Nanos,
    /// Application stalls (migration unmap/TLB, hint faults, swap-ins,
    /// fault-path copies).
    pub stall_time: Nanos,
    /// Daemon CPU time (full, before the contention factor).
    pub daemon_time: Nanos,
    /// Background copy time (migration copies, cache fills).
    pub background_time: Nanos,
    /// Hint faults taken.
    pub hint_faults: u64,
    /// Minor (first-touch) faults.
    pub minor_faults: u64,
}

/// Per-window statistics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WindowStats {
    /// Pages promoted during the window.
    pub promotions: u64,
    /// Pages demoted during the window.
    pub demotions: u64,
    /// Promotions from this window that were re-accessed afterwards
    /// (within the re-access horizon).
    pub promoted_reaccessed: u64,
    /// Promotions from this window whose re-access horizon has elapsed
    /// (the denominator for the re-access percentage).
    pub promoted_settled: u64,
    /// Application operations completed in the window (filled by the
    /// experiment driver).
    pub ops: u64,
}

impl WindowStats {
    /// Percentage of settled promotions that were re-accessed (Fig. 9's
    /// Y axis). `None` until at least one promotion has settled.
    pub fn reaccess_pct(&self) -> Option<f64> {
        if self.promoted_settled == 0 {
            None
        } else {
            Some(100.0 * self.promoted_reaccessed as f64 / self.promoted_settled as f64)
        }
    }
}

/// Pending re-access bookkeeping for one promoted page.
#[derive(Debug, Clone, Copy)]
struct Pending {
    window: usize,
    promoted_at: Nanos,
    reaccessed: bool,
}

/// The metrics collector.
#[derive(Debug)]
pub struct Metrics {
    window_len: Nanos,
    /// Horizon after promotion within which a re-access counts.
    horizon: Nanos,
    windows: Vec<WindowStats>,
    /// `BTreeMap` so settle/finish walk pending promotions in page order.
    pending: BTreeMap<VPage, Pending>,
    /// The run's clock and where its time went; the engine charges it.
    pub(crate) time: TimeLedger,
    /// Faults served (one that gave up is charged, not counted).
    pub(crate) hint_faults: u64,
    pub(crate) minor_faults: u64,
}

impl Metrics {
    /// Creates a collector with the given window length and a re-access
    /// horizon of one window.
    pub fn new(window_len: Nanos) -> Self {
        Self::with_horizon(window_len, window_len)
    }

    /// Creates a collector with an explicit re-access horizon: a
    /// promotion counts as re-accessed only if the page is touched within
    /// `horizon` after the migration. The paper's Fig. 9 judges pages
    /// "promoted in the last scan", so the engine passes the scan
    /// interval here.
    pub fn with_horizon(window_len: Nanos, horizon: Nanos) -> Self {
        assert!(window_len > Nanos::ZERO, "window must be positive");
        assert!(horizon > Nanos::ZERO, "horizon must be positive");
        Metrics {
            window_len,
            horizon,
            windows: vec![WindowStats::default()],
            pending: BTreeMap::new(),
            time: TimeLedger::default(),
            hint_faults: 0,
            minor_faults: 0,
        }
    }

    /// The window index for an instant.
    fn window_at(&self, now: Nanos) -> usize {
        (now.as_nanos() / self.window_len.as_nanos()) as usize
    }

    fn ensure_window(&mut self, idx: usize) -> &mut WindowStats {
        if idx >= self.windows.len() {
            self.windows.resize(idx + 1, WindowStats::default());
        }
        // Indexing: the resize above guarantees idx < len.
        &mut self.windows[idx]
    }

    /// Records a promotion of `vpage` now.
    pub(crate) fn on_promotion(&mut self, vpage: VPage) {
        let now = self.time.now();
        let w = self.window_at(now);
        self.ensure_window(w).promotions += 1;
        self.pending.insert(
            vpage,
            Pending {
                window: w,
                promoted_at: now,
                reaccessed: false,
            },
        );
    }

    /// Records a demotion now.
    pub(crate) fn on_demotion(&mut self) {
        let w = self.window_at(self.time.now());
        self.ensure_window(w).demotions += 1;
    }

    /// Records an application access; settles or marks pending
    /// promotions.
    pub(crate) fn on_access(&mut self, vpage: VPage) {
        // Promotions are rare next to accesses: usually nothing is pending.
        if self.pending.is_empty() {
            return;
        }
        let now = self.time.now();
        if let Some(p) = self.pending.get_mut(&vpage) {
            if now.saturating_sub(p.promoted_at) <= self.horizon {
                p.reaccessed = true;
            }
            let p = *p;
            if p.reaccessed || now.saturating_sub(p.promoted_at) > self.horizon {
                self.pending.remove(&vpage);
                let w = self.ensure_window(p.window);
                w.promoted_settled += 1;
                if p.reaccessed {
                    w.promoted_reaccessed += 1;
                }
            }
        }
    }

    /// Records a completed application operation (throughput-per-window).
    pub(crate) fn on_op(&mut self) {
        let w = self.window_at(self.time.now());
        self.ensure_window(w).ops += 1;
    }

    /// Settles every promotion older than the horizon (called at window
    /// boundaries and at the end of a run).
    pub(crate) fn settle(&mut self) {
        let (now, horizon) = (self.time.now(), self.horizon);
        let drained: Vec<(VPage, Pending)> = self
            .pending
            .iter()
            .filter(|(_, p)| p.reaccessed || now.saturating_sub(p.promoted_at) > horizon)
            .map(|(v, p)| (*v, *p))
            .collect();
        for (v, p) in drained {
            self.pending.remove(&v);
            let w = self.ensure_window(p.window);
            w.promoted_settled += 1;
            if p.reaccessed {
                w.promoted_reaccessed += 1;
            }
        }
    }

    /// Finalises at end of run: everything unsettled is settled as
    /// not-re-accessed.
    pub(crate) fn finish(&mut self) {
        let drained = std::mem::take(&mut self.pending);
        for p in drained.into_values() {
            let w = self.ensure_window(p.window);
            w.promoted_settled += 1;
            if p.reaccessed {
                w.promoted_reaccessed += 1;
            }
        }
        let w = self.window_at(self.time.now());
        self.ensure_window(w);
    }

    /// The per-window statistics recorded so far.
    pub fn windows(&self) -> &[WindowStats] {
        &self.windows
    }

    /// The cost breakdown.
    pub fn costs(&self) -> CostBreakdown {
        let spent = |c| self.time.get(c);
        CostBreakdown {
            access_time: spent(Charge::Device),
            stall_time: spent(Charge::MinorFault)
                + spent(Charge::HintFault)
                + spent(Charge::MigrationStall)
                + spent(Charge::SwapIn),
            daemon_time: spent(Charge::DaemonCpu),
            background_time: spent(Charge::Background),
            hint_faults: self.hint_faults,
            minor_faults: self.minor_faults,
        }
    }

    /// Total promotions across windows.
    pub fn total_promotions(&self) -> u64 {
        self.windows.iter().map(|w| w.promotions).sum()
    }

    /// Total demotions across windows.
    pub fn total_demotions(&self) -> u64 {
        self.windows.iter().map(|w| w.demotions).sum()
    }

    /// Overall re-access percentage across all settled promotions.
    pub fn overall_reaccess_pct(&self) -> Option<f64> {
        let settled: u64 = self.windows.iter().map(|w| w.promoted_settled).sum();
        let re: u64 = self.windows.iter().map(|w| w.promoted_reaccessed).sum();
        if settled == 0 {
            None
        } else {
            Some(100.0 * re as f64 / settled as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u64) -> VPage {
        VPage::new(i)
    }

    /// Advances `m`'s clock to `secs` seconds.
    fn at(m: &mut Metrics, secs: u64) -> &mut Metrics {
        let t = Nanos::from_secs(secs);
        m.time.charge(Charge::Compute, t - m.time.now());
        m
    }

    #[test]
    fn promotions_bucket_into_windows() {
        let mut m = Metrics::new(Nanos::from_secs(20));
        at(&mut m, 5).on_promotion(v(1));
        at(&mut m, 19).on_promotion(v(2));
        at(&mut m, 21).on_promotion(v(3));
        at(&mut m, 40).finish();
        assert_eq!(m.windows()[0].promotions, 2);
        assert_eq!(m.windows()[1].promotions, 1);
        assert_eq!(m.total_promotions(), 3);
    }

    #[test]
    fn reaccess_within_horizon_counts() {
        let mut m = Metrics::new(Nanos::from_secs(20));
        at(&mut m, 1).on_promotion(v(1));
        at(&mut m, 1).on_promotion(v(2));
        // Page 1 re-accessed quickly; page 2 never.
        at(&mut m, 2).on_access(v(1));
        at(&mut m, 60).finish();
        let w = m.windows()[0];
        assert_eq!(w.promoted_settled, 2);
        assert_eq!(w.promoted_reaccessed, 1);
        assert_eq!(w.reaccess_pct(), Some(50.0));
        assert_eq!(m.overall_reaccess_pct(), Some(50.0));
    }

    #[test]
    fn reaccess_after_horizon_does_not_count() {
        let mut m = Metrics::new(Nanos::from_secs(20));
        at(&mut m, 1).on_promotion(v(1));
        at(&mut m, 50).on_access(v(1));
        at(&mut m, 60).finish();
        let w = m.windows()[0];
        assert_eq!(w.promoted_settled, 1);
        assert_eq!(w.promoted_reaccessed, 0);
    }

    #[test]
    fn reaccess_percentage_attributed_to_promotion_window() {
        let mut m = Metrics::new(Nanos::from_secs(20));
        // Promoted in window 1, re-accessed in window 2.
        at(&mut m, 25).on_promotion(v(7));
        at(&mut m, 41).on_access(v(7));
        at(&mut m, 60).finish();
        assert_eq!(m.windows()[1].promoted_reaccessed, 1);
        assert_eq!(m.windows()[2].promoted_reaccessed, 0);
    }

    #[test]
    fn ops_and_demotions_per_window() {
        let mut m = Metrics::new(Nanos::from_secs(10));
        at(&mut m, 1).on_op();
        at(&mut m, 11).on_op();
        at(&mut m, 11).on_demotion();
        at(&mut m, 20).finish();
        assert_eq!(m.windows()[0].ops, 1);
        assert_eq!(m.windows()[1].ops, 1);
        assert_eq!(m.windows()[1].demotions, 1);
        assert_eq!(m.total_demotions(), 1);
    }

    #[test]
    fn settle_flushes_expired_only() {
        let mut m = Metrics::new(Nanos::from_secs(20));
        at(&mut m, 1).on_promotion(v(1)); // will expire
        at(&mut m, 30).on_promotion(v(2)); // still fresh
        at(&mut m, 35).settle();
        assert_eq!(m.windows()[0].promoted_settled, 1);
        assert_eq!(m.windows()[1].promoted_settled, 0);
    }

    #[test]
    fn empty_windows_report_no_percentage() {
        let m = Metrics::new(Nanos::from_secs(20));
        assert_eq!(m.windows()[0].reaccess_pct(), None);
        assert_eq!(m.overall_reaccess_pct(), None);
    }

    #[test]
    fn reaccess_pct_with_zero_settled_is_none() {
        // Promotions recorded but none settled yet: the denominator is
        // zero and the percentage must be absent, not NaN or 0.
        let mut m = Metrics::new(Nanos::from_secs(20));
        at(&mut m, 1).on_promotion(v(1));
        let w = m.windows()[0];
        assert_eq!(w.promotions, 1);
        assert_eq!(w.promoted_settled, 0);
        assert_eq!(w.reaccess_pct(), None);
        assert_eq!(m.overall_reaccess_pct(), None);
        // Direct struct check too (drivers build WindowStats by hand).
        let ws = WindowStats {
            promotions: 5,
            ..WindowStats::default()
        };
        assert_eq!(ws.reaccess_pct(), None);
    }

    #[test]
    fn reaccess_pct_with_all_reaccessed_is_exactly_100() {
        let mut m = Metrics::new(Nanos::from_secs(20));
        for i in 0..7 {
            at(&mut m, 1).on_promotion(v(i));
        }
        for i in 0..7 {
            at(&mut m, 2).on_access(v(i));
        }
        at(&mut m, 60).finish();
        let w = m.windows()[0];
        assert_eq!(w.promoted_settled, 7);
        assert_eq!(w.promoted_reaccessed, 7);
        assert_eq!(w.reaccess_pct(), Some(100.0));
        assert_eq!(m.overall_reaccess_pct(), Some(100.0));
    }
}
