//! Windowed metrics: promotion counts (Fig. 8), re-access percentages of
//! recently promoted pages (Fig. 9) and the cost breakdown (§V-F).

use mc_mem::{Charge, Nanos, TimeLedger, VPage, VPageMap};

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

/// The metrics collector.
#[derive(Debug)]
pub struct Metrics {
    window_len: Nanos,
    /// Horizon after promotion within which a re-access counts.
    horizon: Nanos,
    windows: Vec<WindowStats>,
    /// When each promoted page not yet settled was promoted. The first
    /// access after a promotion settles it, so a pending page has never
    /// been re-accessed.
    pending: VPageMap<Nanos>,
    /// The pages `settle` and `finish` walk: every pending page, once,
    /// plus pages an access settled since the last walk, which the walk
    /// drops. Settling only adds to window counters, so order is moot.
    pending_pages: Vec<VPage>,
    /// The run's clock and where its time went; the engine charges it.
    pub(crate) time: TimeLedger,
    /// Faults served (one that gave up is charged, not counted).
    pub(crate) hint_faults: u64,
    pub(crate) minor_faults: u64,
}

impl Metrics {
    /// Creates a collector with the given window length and a re-access
    /// horizon of one window.
    #[cfg(test)]
    pub(crate) fn new(window_len: Nanos) -> Self {
        Self::with_horizon(window_len, window_len, 0)
    }

    /// Creates a collector with an explicit re-access horizon: a
    /// promotion counts as re-accessed only if the page is touched within
    /// `horizon` after the migration. The paper's Fig. 9 judges pages
    /// "promoted in the last scan", so the engine passes the scan
    /// interval here.
    ///
    /// Only a mapped page can be pending, so the engine passes the
    /// machine's frame count as `pages` and the pending list is allocated
    /// once. A list that doubled during the run would leave its old
    /// buffers free in the middle of the heap; small blocks allocated
    /// later land there instead of at the top, glibc trims the heap
    /// further when the simulation is dropped, and the next set-up faults
    /// the memory back in. On a 2-vCPU Xeon host that alone made the repo
    /// benchmark's `setup_s` on `ycsb_b_large` read 1.25×.
    pub(crate) fn with_horizon(window_len: Nanos, horizon: Nanos, pages: usize) -> Self {
        assert!(window_len > Nanos::ZERO, "window must be positive");
        assert!(horizon > Nanos::ZERO, "horizon must be positive");
        Metrics {
            window_len,
            horizon,
            windows: vec![WindowStats::default()],
            pending: VPageMap::new(),
            pending_pages: Vec::with_capacity(pages),
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

    /// Counts a settled promotion made at `promoted_at` in its window.
    fn settle_one(&mut self, promoted_at: Nanos, reaccessed: bool) {
        let w = self.ensure_window(self.window_at(promoted_at));
        w.promoted_settled += 1;
        w.promoted_reaccessed += u64::from(reaccessed);
    }

    /// Records a promotion of `vpage` now.
    pub(crate) fn on_promotion(&mut self, vpage: VPage) {
        let now = self.time.now();
        let w = self.window_at(now);
        self.ensure_window(w).promotions += 1;
        // A promoted page is mapped, so it lies inside the span the page
        // table (also a `VPageMap`) accepted.
        if let Ok(None) = self.pending.insert(vpage, now) {
            self.pending_pages.push(vpage);
        }
    }

    /// Records a demotion now.
    pub(crate) fn on_demotion(&mut self) {
        let w = self.window_at(self.time.now());
        self.ensure_window(w).demotions += 1;
    }

    /// Records an application access; the first one after a promotion
    /// settles it, re-accessed if it came within the horizon. Promotions
    /// are rare next to accesses, so usually nothing is pending: the
    /// emptiness test is inlined into the hit path and the lookup stays
    /// out of line.
    #[inline]
    pub(crate) fn on_access(&mut self, vpage: VPage) {
        if !self.pending.is_empty() {
            self.settle_access(vpage);
        }
    }

    /// The out-of-line half of [`Self::on_access`]: a promotion is pending.
    #[inline(never)]
    fn settle_access(&mut self, vpage: VPage) {
        if let Some(promoted_at) = self.pending.remove(vpage) {
            let fresh = self.time.now().saturating_sub(promoted_at) <= self.horizon;
            self.settle_one(promoted_at, fresh);
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
        let mut pages = std::mem::take(&mut self.pending_pages);
        pages.retain(|&v| match self.pending.get(v).copied() {
            Some(at) if now.saturating_sub(at) > horizon => {
                self.pending.remove(v);
                self.settle_one(at, false);
                false
            }
            pending => pending.is_some(),
        });
        self.pending_pages = pages;
    }

    /// Finalises at end of run: everything unsettled is settled as
    /// not-re-accessed.
    pub(crate) fn finish(&mut self) {
        let mut pages = std::mem::take(&mut self.pending_pages);
        for v in pages.drain(..) {
            if let Some(at) = self.pending.remove(v) {
                self.settle_one(at, false);
            }
        }
        self.pending_pages = pages;
        let w = self.window_at(self.time.now());
        self.ensure_window(w);
    }

    /// The per-window statistics recorded so far.
    pub(crate) fn windows(&self) -> &[WindowStats] {
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
    use proptest::prelude::*;
    use std::collections::BTreeMap;

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

    /// The re-access ledger as it was before the dense index: a
    /// `BTreeMap` of pending promotions, walked in page order. The oracle
    /// for `dense_ledger_matches_the_btreemap_ledger`.
    struct MapLedger {
        window_len: Nanos,
        horizon: Nanos,
        windows: Vec<WindowStats>,
        /// (window, promoted at, re-accessed) per pending page.
        pending: BTreeMap<VPage, (usize, Nanos, bool)>,
    }

    impl MapLedger {
        fn index(&self, now: Nanos) -> usize {
            (now.as_nanos() / self.window_len.as_nanos()) as usize
        }

        fn window(&mut self, idx: usize) -> &mut WindowStats {
            if idx >= self.windows.len() {
                self.windows.resize(idx + 1, WindowStats::default());
            }
            &mut self.windows[idx]
        }

        fn credit(&mut self, (window, _, reaccessed): (usize, Nanos, bool)) {
            let w = self.window(window);
            w.promoted_settled += 1;
            if reaccessed {
                w.promoted_reaccessed += 1;
            }
        }

        fn on_promotion(&mut self, vpage: VPage, now: Nanos) {
            let w = self.index(now);
            self.window(w).promotions += 1;
            self.pending.insert(vpage, (w, now, false));
        }

        fn on_access(&mut self, vpage: VPage, now: Nanos) {
            if let Some(p) = self.pending.get_mut(&vpage) {
                if now.saturating_sub(p.1) <= self.horizon {
                    p.2 = true;
                }
                let p = *p;
                if p.2 || now.saturating_sub(p.1) > self.horizon {
                    self.pending.remove(&vpage);
                    self.credit(p);
                }
            }
        }

        fn settle(&mut self, now: Nanos) {
            let horizon = self.horizon;
            let drained: Vec<(VPage, (usize, Nanos, bool))> = self
                .pending
                .iter()
                .filter(|(_, p)| p.2 || now.saturating_sub(p.1) > horizon)
                .map(|(v, p)| (*v, *p))
                .collect();
            for (v, p) in drained {
                self.pending.remove(&v);
                self.credit(p);
            }
        }

        fn finish(&mut self, now: Nanos) {
            for p in std::mem::take(&mut self.pending).into_values() {
                self.credit(p);
            }
            self.window(self.index(now));
        }

        fn overall_reaccess_pct(&self) -> Option<f64> {
            let settled: u64 = self.windows.iter().map(|w| w.promoted_settled).sum();
            let re: u64 = self.windows.iter().map(|w| w.promoted_reaccessed).sum();
            (settled > 0).then(|| 100.0 * re as f64 / settled as f64)
        }
    }

    /// Pages that repeat often and straddle several `VPageMap` leaves.
    fn arb_page() -> impl Strategy<Value = u64> {
        prop_oneof![0u64..6, (0u64..4).prop_map(|k| k * 3 * 512 + 511)]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn dense_ledger_matches_the_btreemap_ledger(
            ops in prop::collection::vec((0u8..10, arb_page(), 0u64..25), 1..200),
        ) {
            let (window_len, horizon) = (Nanos::from_nanos(10), Nanos::from_nanos(7));
            let mut m = Metrics::with_horizon(window_len, horizon, 0);
            let mut oracle = MapLedger {
                window_len,
                horizon,
                windows: vec![WindowStats::default()],
                pending: BTreeMap::new(),
            };
            for (step, (op, page, ns)) in ops.into_iter().enumerate() {
                let (v, now) = (VPage::new(page), m.time.now());
                match op {
                    0..=2 => {
                        m.on_promotion(v);
                        oracle.on_promotion(v, now);
                    }
                    3..=5 => {
                        m.on_access(v);
                        oracle.on_access(v, now);
                    }
                    6 | 7 => m.time.charge(Charge::Compute, Nanos::from_nanos(ns)),
                    8 => {
                        m.settle();
                        oracle.settle(now);
                    }
                    _ => {
                        m.finish();
                        oracle.finish(now);
                    }
                }
                prop_assert_eq!(m.windows(), &oracle.windows[..], "step {}", step);
                prop_assert_eq!(
                    m.overall_reaccess_pct(),
                    oracle.overall_reaccess_pct(),
                    "step {}",
                    step
                );
            }
        }
    }

    #[test]
    fn a_page_promoted_again_before_it_settles_counts_twice_and_settles_once() {
        let mut m = Metrics::new(Nanos::from_secs(20));
        at(&mut m, 1).on_promotion(v(1));
        at(&mut m, 3).on_promotion(v(1));
        at(&mut m, 4).on_access(v(1));
        at(&mut m, 5).on_promotion(v(1));
        at(&mut m, 40).settle();
        at(&mut m, 60).finish();
        let w = m.windows()[0];
        assert_eq!((w.promotions, w.promoted_settled), (3, 2));
        assert_eq!(w.promoted_reaccessed, 1);
    }
}
