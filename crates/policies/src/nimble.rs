//! The Nimble page-selection baseline.
//!
//! Nimble (Yan et al., ASPLOS'19) optimises the *mechanics* of page
//! migration (multi-threaded copies, two-sided exchange) but reuses the
//! kernel's stock CLOCK page profiling: a page is promotion-worthy if it
//! was *recently referenced* — recency only, no frequency. The MULTI-CLOCK
//! paper isolates that selection mechanism and runs it single-threaded for
//! an apples-to-apples comparison (§II-D); we do the same.
//!
//! Concretely, each scan interval Nimble harvests reference bits over its
//! per-tier active/inactive lists (standard two-list CLOCK transitions:
//! one referenced observation activates a page) and promotes **every
//! lower-tier page seen referenced in this interval**, exchanging with the
//! coldest top-tier pages when DRAM is full. Compared with MULTI-CLOCK
//! this promotes more pages after fewer observations — exactly the
//! behaviour Figs. 8/9 measure (more promotions, lower re-access rate).

use crate::ring::{self, Rings, RECLAIM_BATCH};
use mc_clock::balance::inactive_is_low;
use mc_mem::{
    AccessKind, FrameId, MemorySystem, Nanos, PolicyTraits, TickOutcome, TierId, TieringPolicy,
    Topology,
};
use mc_obs::EventKind;

/// The Nimble recency-only selection policy: per tier, stock CLOCK's
/// inactive and active lists (no promote list — that is MULTI-CLOCK's
/// addition).
#[derive(Debug)]
pub struct Nimble {
    scan_interval: Nanos,
    /// Pages examined per list per tick.
    scan_batch: usize,
    inactive: Rings,
    active: Rings,
    ticks: u64,
}

impl Nimble {
    /// Creates a Nimble instance for a topology: one scan every
    /// `scan_interval`, examining up to `scan_batch` pages per list.
    pub fn new(topology: &Topology, scan_interval: Nanos, scan_batch: usize) -> Self {
        assert!(scan_batch > 0, "scan batch must be positive");
        Nimble {
            scan_interval,
            scan_batch,
            inactive: Rings::new(topology),
            active: Rings::new(topology),
            ticks: 0,
        }
    }

    /// The paper's setup for the comparison: 1 s scan interval, 1024-page
    /// scan batches.
    pub fn with_defaults(topology: &Topology) -> Self {
        Self::new(topology, Nanos::from_secs(1), 1024)
    }

    /// Harvests `frame`'s reference bit and files it at the back of the
    /// active list if it was referenced, else of the inactive list.
    fn refile(&mut self, mem: &mut MemorySystem, tier: TierId, frame: FrameId) {
        if mem.harvest_referenced(frame) {
            self.active.track(tier, frame);
        } else {
            self.inactive.track(tier, frame);
        }
    }

    /// Scans one tier's lists, harvesting reference bits; returns
    /// (pages scanned, lower-tier pages seen referenced).
    fn scan_tier(&mut self, mem: &mut MemorySystem, tier: TierId) -> (u64, Vec<FrameId>) {
        let mut hot = Vec::new();
        let mut scanned = 0u64;
        // Inactive list: referenced pages activate (one observation).
        for _ in 0..self.inactive.tier(tier).len().min(self.scan_batch) {
            let Some(frame) = self.inactive.pop(tier) else {
                break;
            };
            scanned += 1;
            self.refile(mem, tier, frame);
        }
        // Active list: every page rotates; referenced ones on lower tiers
        // are promotion candidates.
        self.active.rotate_until(tier, self.scan_batch, |frame| {
            scanned += 1;
            if mem.harvest_referenced(frame) && !tier.is_top() {
                hot.push(frame);
            }
            false
        });
        (scanned, hot)
    }
}

impl TieringPolicy for Nimble {
    fn name(&self) -> &'static str {
        "nimble"
    }

    fn traits(&self) -> PolicyTraits {
        PolicyTraits {
            name: "Nimble",
            page_access_tracking: "Reference Bit",
            selection_promotion: "Recency",
            selection_demotion: "Recency",
            numa_aware: false,
            space_overhead: false,
            generality: "All",
            key_insight: "Optimize huge page migrations",
        }
    }

    fn on_page_mapped(&mut self, mem: &mut MemorySystem, frame: FrameId) {
        self.inactive.track(mem.frame(frame).tier(), frame);
    }

    fn on_supervised_access(&mut self, mem: &mut MemorySystem, frame: FrameId, _kind: AccessKind) {
        // Stock CLOCK behaviour: one observation activates; an active
        // page moves to the back.
        let tier = mem.frame(frame).tier();
        if self.inactive.untrack(tier, frame) || self.active.untrack(tier, frame) {
            self.active.track(tier, frame);
        }
    }

    fn tick(&mut self, mem: &mut MemorySystem, now: Nanos) -> TickOutcome {
        self.ticks += 1;
        let mut out = TickOutcome::default();
        let mut hot_by_tier: Vec<(TierId, Vec<FrameId>)> = Vec::new();
        for t in 0..mem.topology().tier_count() {
            let tier = TierId::new(t as u8);
            let (scanned, hot) = self.scan_tier(mem, tier);
            out.pages_scanned += scanned;
            if !hot.is_empty() {
                hot_by_tier.push((tier, hot));
            }
        }
        for (tier, hot) in hot_by_tier {
            // Victims come from the inactive list only: those pages were
            // observed unreferenced at the last scan. Taking active
            // (recently referenced) pages would strip the hot set to make
            // room for single-observation candidates.
            let promoted = ring::exchange(
                mem,
                tier,
                hot,
                self.ticks,
                &mut self.inactive,
                |mem, victim| mem.harvest_referenced(victim),
                |_, old, new, src, dst| self.active.moved(old, new, src, dst),
            );
            out.promoted += promoted;
            mem.instruments.emit(|| EventKind::Custom {
                tag: "nimble_promote_batch",
                a: promoted,
                b: tier.index() as u64,
            });
        }
        out.merge(&ring::relieve_pressure(self, mem, now));
        out
    }

    /// `ring::reclaim` cannot run this loop: before each victim it may
    /// refill the inactive list from the active one, and a referenced
    /// victim is activated rather than put back.
    fn on_pressure(&mut self, mem: &mut MemorySystem, tier: TierId, _now: Nanos) -> TickOutcome {
        let mut out = TickOutcome::default();
        let mut budget = RECLAIM_BATCH;
        let tier_pages = mem.topology().tier(tier).pages();
        let lower = tier.lower(mem.topology().tier_count());
        while !mem.tier_balanced(tier) && budget > 0 {
            // Keep the inactive list fed.
            let active = self.active.tier(tier).len();
            let inactive = self.inactive.tier(tier).len();
            if inactive_is_low(active, inactive, tier_pages) || inactive == 0 {
                if let Some(frame) = self.active.pop(tier) {
                    budget -= 1;
                    out.pages_scanned += 1;
                    self.refile(mem, tier, frame);
                    continue;
                }
            }
            let Some(frame) = self.inactive.pop(tier) else {
                break;
            };
            budget -= 1;
            out.pages_scanned += 1;
            if mem.harvest_referenced(frame) {
                self.active.track(tier, frame);
            } else if ring::push_down(mem, &mut self.inactive, frame, tier, lower) {
                out.demoted += 1;
            }
        }
        out
    }

    fn tick_interval(&self) -> Option<Nanos> {
        Some(self.scan_interval)
    }

    fn counters(&self, mem: &MemorySystem) -> Vec<(&'static str, u64)> {
        vec![
            ("nimble_ticks", self.ticks),
            ("nimble_promotions", mem.stats().promotions),
            ("nimble_demotions", mem.stats().demotions),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_mem::{MachineDesc, PageKind, VPage};

    fn setup() -> (MemorySystem, Nimble) {
        let mem = MemorySystem::new(MachineDesc::dram_pm(64, 256));
        let n = Nimble::with_defaults(mem.topology());
        (mem, n)
    }

    fn map_in_tier(mem: &mut MemorySystem, n: &mut Nimble, v: u64, tier: TierId) -> FrameId {
        let f = mem.alloc_page_in_tier(PageKind::Anon, tier).unwrap();
        mem.map(VPage::new(v), f).unwrap();
        n.on_page_mapped(mem, f);
        f
    }

    #[test]
    fn promotes_after_two_observations() {
        // The key contrast with MULTI-CLOCK's four-rung ladder: a page
        // referenced while on the active list (two observations total) is
        // already a promotion candidate.
        let (mut mem, mut n) = setup();
        let pm = TierId::new(1);
        map_in_tier(&mut mem, &mut n, 1, pm);
        mem.access(VPage::new(1), AccessKind::Read).unwrap();
        let out = n.tick(&mut mem, Nanos::from_secs(1));
        assert_eq!(out.promoted, 0, "first observation only activates");
        mem.access(VPage::new(1), AccessKind::Read).unwrap();
        let out = n.tick(&mut mem, Nanos::from_secs(2));
        assert_eq!(out.promoted, 1, "second observation promotes");
        let nf = mem.translate(VPage::new(1)).unwrap();
        assert_eq!(mem.frame(nf).tier(), TierId::TOP);
    }

    #[test]
    fn promotes_more_pages_than_multi_clock_on_same_workload() {
        // Fig. 8's shape: identical access pattern, Nimble promotes more.
        let mk_mem = || MemorySystem::new(MachineDesc::dram_pm(512, 1024));
        let pm = TierId::new(1);

        // Pages accessed exactly twice, one interval apart: Nimble
        // promotes them; MULTI-CLOCK (4-step ladder) does not.
        let mut mem_n = mk_mem();
        let mut nim = Nimble::with_defaults(mem_n.topology());
        for v in 0..50u64 {
            map_in_tier(&mut mem_n, &mut nim, v, pm);
        }
        let mut mem_mc = mk_mem();
        let mut mc = multi_clock::MultiClock::new(Default::default(), mem_mc.topology());
        for v in 0..50u64 {
            let f = mem_mc.alloc_page_in_tier(PageKind::Anon, pm).unwrap();
            mem_mc.map(VPage::new(v), f).unwrap();
            mc.on_page_mapped(&mut mem_mc, f);
        }
        for interval in 1..=2u64 {
            for v in 0..50u64 {
                mem_n.access(VPage::new(v), AccessKind::Read).unwrap();
                mem_mc.access(VPage::new(v), AccessKind::Read).unwrap();
            }
            nim.tick(&mut mem_n, Nanos::from_secs(interval));
            mc.tick(&mut mem_mc, Nanos::from_secs(interval));
        }
        assert_eq!(mem_n.stats().promotions, 50, "Nimble promoted everything");
        assert_eq!(mem_mc.stats().promotions, 0, "MULTI-CLOCK held back");
    }

    #[test]
    fn exchange_demotes_cold_dram_page_when_full() {
        let mut mem = MemorySystem::new(MachineDesc::dram_pm(32, 128));
        let mut n = Nimble::with_defaults(mem.topology());
        // Fill DRAM with cold pages.
        let mut v = 0u64;
        while let Ok(f) = mem.alloc_page_in_tier(PageKind::Anon, TierId::TOP) {
            mem.map(VPage::new(v), f).unwrap();
            n.on_page_mapped(&mut mem, f);
            v += 1;
        }
        // One hot PM page (touched across two intervals to qualify).
        let hot_v = 1000u64;
        map_in_tier(&mut mem, &mut n, hot_v, TierId::new(1));
        mem.access(VPage::new(hot_v), AccessKind::Read).unwrap();
        n.tick(&mut mem, Nanos::from_secs(1));
        mem.access(VPage::new(hot_v), AccessKind::Read).unwrap();
        let out = n.tick(&mut mem, Nanos::from_secs(2));
        assert_eq!(out.promoted, 1, "exchange made room");
        assert!(mem.stats().demotions >= 1, "a cold DRAM page was demoted");
        let nf = mem.translate(VPage::new(hot_v)).unwrap();
        assert_eq!(mem.frame(nf).tier(), TierId::TOP);
    }

    #[test]
    fn cold_pages_not_promoted() {
        let (mut mem, mut n) = setup();
        let pm = TierId::new(1);
        let f = map_in_tier(&mut mem, &mut n, 1, pm);
        for s in 1..=5u64 {
            n.tick(&mut mem, Nanos::from_secs(s));
        }
        assert_eq!(mem.frame(f).tier(), pm);
        assert_eq!(mem.stats().promotions, 0);
    }

    #[test]
    fn pressure_demotes_then_evicts() {
        let mut mem = MemorySystem::new(MachineDesc::dram_pm(16, 32));
        let mut n = Nimble::with_defaults(mem.topology());
        let mut v = 0u64;
        while let Ok(f) = mem.alloc_page(PageKind::Anon) {
            mem.map(VPage::new(v), f).unwrap();
            n.on_page_mapped(&mut mem, f);
            v += 1;
        }
        let out = n.on_pressure(&mut mem, TierId::TOP, Nanos::ZERO);
        assert!(out.demoted > 0 || mem.stats().evictions > 0);
        assert!(mem.tier_balanced(TierId::TOP));
    }

    #[test]
    fn traits_match_table_one() {
        let (_, n) = setup();
        let t = n.traits();
        assert_eq!(t.selection_promotion, "Recency");
        assert!(!t.numa_aware);
    }
}
